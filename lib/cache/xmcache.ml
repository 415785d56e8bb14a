(* Two-tier serve cache.  See the mli for the design; the notes here are
   about the concurrency and accounting choices.

   The plan tier is sharded: compiled-plan lookups happen on every
   request even when the result tier misses, so shards keep worker
   threads from serializing on one lock.  Each shard is a Hashtbl plus a
   FIFO queue of keys for bounded occupancy — eviction order for plans
   barely matters (recompiling is milliseconds), staying bounded does.

   The result tier is a classic doubly-linked LRU under a single mutex:
   the critical section is a few pointer swaps, and the bodies
   themselves are immutable strings handed out by reference, so hits
   copy nothing.

   All counters are plain Atomics mirrored into metric handles; the
   handles are interned when the cache is installed, so the hot path
   never builds a label list. *)

type result_entry = {
  body : string;
  is_query : bool;
  classification : string option;
  out_nodes : int;
}

(* ---------- plan tier ---------- *)

type plan_shard = {
  p_lock : Mutex.t;
  p_tbl : (int * string * bool, Xmorph.Interp.t) Hashtbl.t;
  p_fifo : (int * string * bool) Queue.t; (* insertion order; lazy deletes *)
}

let plan_shard_count = 16

let plan_shard_cap = 64 (* plans per shard; 1024 across the cache *)

(* ---------- result tier ---------- *)

type rkey = {
  generation : int;
  guard_hash : string;
  query_hash : string;
  compact : bool;
  enforce : bool;
}

type lnode = {
  key : rkey;
  entry : result_entry;
  size : int;
  mutable prev : lnode option;
  mutable next : lnode option;
}

(* Charged size of an entry: the body plus a fixed allowance for the key
   strings, the node, and both table slots.  The allowance keeps a
   pathological workload of tiny bodies from blowing past the budget on
   bookkeeping alone. *)
let entry_size (e : result_entry) = String.length e.body + 128

type t = {
  budget : int;
  plans : plan_shard array;
  r_lock : Mutex.t;
  r_tbl : (rkey, lnode) Hashtbl.t;
  mutable r_head : lnode option; (* most recently used *)
  mutable r_tail : lnode option; (* eviction end *)
  mutable r_bytes : int;
  plan_hits : int Atomic.t;
  plan_misses : int Atomic.t;
  plan_evictions : int Atomic.t;
  result_hits : int Atomic.t;
  result_misses : int Atomic.t;
  result_evictions : int Atomic.t;
  m_plan_hits : Xmobs.Metrics.counter;
  m_plan_misses : Xmobs.Metrics.counter;
  m_plan_evictions : Xmobs.Metrics.counter;
  m_result_hits : Xmobs.Metrics.counter;
  m_result_misses : Xmobs.Metrics.counter;
  m_result_evictions : Xmobs.Metrics.counter;
  m_bytes : Xmobs.Metrics.gauge;
}

(* The global gate.  [None] is immediate, so the disabled check in every
   entry point is one atomic load and a pattern match — no allocation. *)
let state : t option Atomic.t = Atomic.make None

let enabled () = match Atomic.get state with None -> false | Some _ -> true

let hits_family = "xmorph_cache_hits_total"
let misses_family = "xmorph_cache_misses_total"
let evictions_family = "xmorph_cache_evictions_total"
let bytes_gauge = "xmorph_cache_bytes"

let enable_into r ~budget_bytes =
  if budget_bytes < 0 then invalid_arg "Xmcache.enable: negative budget";
  let labeled tier family =
    Xmobs.Metrics.counter_labeled ~r family [ ("tier", tier) ]
  in
  let t =
    {
      budget = budget_bytes;
      plans =
        Array.init plan_shard_count (fun _ ->
            { p_lock = Mutex.create ();
              p_tbl = Hashtbl.create 32;
              p_fifo = Queue.create () });
      r_lock = Mutex.create ();
      r_tbl = Hashtbl.create 64;
      r_head = None;
      r_tail = None;
      r_bytes = 0;
      plan_hits = Atomic.make 0;
      plan_misses = Atomic.make 0;
      plan_evictions = Atomic.make 0;
      result_hits = Atomic.make 0;
      result_misses = Atomic.make 0;
      result_evictions = Atomic.make 0;
      m_plan_hits = labeled "plan" hits_family;
      m_plan_misses = labeled "plan" misses_family;
      m_plan_evictions = labeled "plan" evictions_family;
      m_result_hits = labeled "result" hits_family;
      m_result_misses = labeled "result" misses_family;
      m_result_evictions = labeled "result" evictions_family;
      m_bytes = Xmobs.Metrics.gauge ~r bytes_gauge;
    }
  in
  Xmobs.Metrics.gauge_set t.m_bytes 0.0;
  Atomic.set state (Some t)

let enable ~budget_bytes = enable_into (Xmobs.Metrics.create ()) ~budget_bytes

let disable () = Atomic.set state None

let count a m = Atomic.incr a; Xmobs.Metrics.counter_add m 1

(* ---------- plan tier ---------- *)

let plan_shard t key = t.plans.(Hashtbl.hash key land (plan_shard_count - 1))

let find_plan ~guide_uid ~guard_hash ~enforce =
  match Atomic.get state with
  | None -> None
  | Some t ->
      let key = (guide_uid, guard_hash, enforce) in
      let shard = plan_shard t key in
      Mutex.lock shard.p_lock;
      let found = Hashtbl.find_opt shard.p_tbl key in
      Mutex.unlock shard.p_lock;
      (match found with
      | Some _ -> count t.plan_hits t.m_plan_hits
      | None -> count t.plan_misses t.m_plan_misses);
      found

let add_plan ~guide_uid ~guard_hash ~enforce plan =
  match Atomic.get state with
  | None -> ()
  | Some t ->
      let key = (guide_uid, guard_hash, enforce) in
      let shard = plan_shard t key in
      let evicted = ref 0 in
      Mutex.lock shard.p_lock;
      if not (Hashtbl.mem shard.p_tbl key) then begin
        (* The FIFO can hold keys already evicted or re-added; drain
           until a resident key goes (lazy deletion). *)
        while Hashtbl.length shard.p_tbl >= plan_shard_cap do
          match Queue.take_opt shard.p_fifo with
          | None -> Hashtbl.reset shard.p_tbl (* unreachable bookkeeping skew *)
          | Some old ->
              if Hashtbl.mem shard.p_tbl old then begin
                Hashtbl.remove shard.p_tbl old;
                incr evicted
              end
        done;
        Hashtbl.replace shard.p_tbl key plan;
        Queue.push key shard.p_fifo
      end;
      Mutex.unlock shard.p_lock;
      for _ = 1 to !evicted do
        count t.plan_evictions t.m_plan_evictions
      done

(* ---------- result tier: DLL plumbing (callers hold r_lock) ---------- *)

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.r_head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.r_tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.r_head;
  (match t.r_head with Some h -> h.prev <- Some n | None -> t.r_tail <- Some n);
  t.r_head <- Some n

let publish_bytes t = Xmobs.Metrics.gauge_set t.m_bytes (float_of_int t.r_bytes)

let find_result ~generation ~guard_hash ~query_hash ~compact ~enforce =
  match Atomic.get state with
  | None -> None
  | Some t ->
      let key = { generation; guard_hash; query_hash; compact; enforce } in
      Mutex.lock t.r_lock;
      let found =
        match Hashtbl.find_opt t.r_tbl key with
        | Some n ->
            unlink t n;
            push_front t n;
            Some n.entry
        | None -> None
      in
      Mutex.unlock t.r_lock;
      (match found with
      | Some _ -> count t.result_hits t.m_result_hits
      | None -> count t.result_misses t.m_result_misses);
      found

let add_result ~generation ~guard_hash ~query_hash ~compact ~enforce entry =
  match Atomic.get state with
  | None -> ()
  | Some t ->
      let size = entry_size entry in
      if size <= t.budget then begin
        let key = { generation; guard_hash; query_hash; compact; enforce } in
        let evicted = ref 0 in
        Mutex.lock t.r_lock;
        (* Replace-on-conflict: a racing cold render of the same key
           produced the same bytes (determinism contract), so dropping
           the old node is only an accounting move. *)
        (match Hashtbl.find_opt t.r_tbl key with
        | Some old ->
            unlink t old;
            Hashtbl.remove t.r_tbl key;
            t.r_bytes <- t.r_bytes - old.size
        | None -> ());
        while t.r_bytes + size > t.budget && t.r_tail <> None do
          match t.r_tail with
          | None -> ()
          | Some lru ->
              unlink t lru;
              Hashtbl.remove t.r_tbl lru.key;
              t.r_bytes <- t.r_bytes - lru.size;
              incr evicted
        done;
        let n = { key; entry; size; prev = None; next = None } in
        Hashtbl.replace t.r_tbl key n;
        push_front t n;
        t.r_bytes <- t.r_bytes + size;
        publish_bytes t;
        Mutex.unlock t.r_lock;
        for _ = 1 to !evicted do
          count t.result_evictions t.m_result_evictions
        done
      end

(* ---------- introspection ---------- *)

type stats = {
  plan_entries : int;
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  result_entries : int;
  result_hits : int;
  result_misses : int;
  result_evictions : int;
  bytes : int;
  budget_bytes : int;
}

let stats () =
  match Atomic.get state with
  | None -> None
  | Some t ->
      let plan_entries =
        Array.fold_left
          (fun acc shard ->
            Mutex.lock shard.p_lock;
            let n = Hashtbl.length shard.p_tbl in
            Mutex.unlock shard.p_lock;
            acc + n)
          0 t.plans
      in
      Mutex.lock t.r_lock;
      let result_entries = Hashtbl.length t.r_tbl in
      let bytes = t.r_bytes in
      Mutex.unlock t.r_lock;
      Some
        {
          plan_entries;
          plan_hits = Atomic.get t.plan_hits;
          plan_misses = Atomic.get t.plan_misses;
          plan_evictions = Atomic.get t.plan_evictions;
          result_entries;
          result_hits = Atomic.get t.result_hits;
          result_misses = Atomic.get t.result_misses;
          result_evictions = Atomic.get t.result_evictions;
          bytes;
          budget_bytes = t.budget;
        }

let hit_rate hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let to_json () =
  match stats () with
  | None -> Xmutil.Json.Obj [ ("enabled", Xmutil.Json.Bool false) ]
  | Some s ->
      let tier entries hits misses evictions rest =
        Xmutil.Json.Obj
          ([ ("entries", Xmutil.Json.Int entries);
             ("hits", Xmutil.Json.Int hits);
             ("misses", Xmutil.Json.Int misses);
             ("evictions", Xmutil.Json.Int evictions);
             ("hit_rate", Xmutil.Json.Float (hit_rate hits misses)) ]
          @ rest)
      in
      Xmutil.Json.Obj
        [ ("enabled", Xmutil.Json.Bool true);
          ("budget_bytes", Xmutil.Json.Int s.budget_bytes);
          ( "plan",
            tier s.plan_entries s.plan_hits s.plan_misses s.plan_evictions [] );
          ( "result",
            tier s.result_entries s.result_hits s.result_misses
              s.result_evictions
              [ ("bytes", Xmutil.Json.Int s.bytes) ] ) ]
