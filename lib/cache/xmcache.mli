(** Two-tier serve cache: compiled plans and rendered results.

    The paper's central claim (Sec. VIII) is that a guard compiles to a
    data-{e independent} algebra plan over the dataguide; serve workloads
    are a small set of hot guards against slowly-changing documents.  The
    cache exploits both halves:

    - {b Tier 1 — plan cache}: [(shape uid, guard hash, enforce)] →
      compiled {!Xmorph.Interp.t} (which carries its loss
      classification).  A plan stays valid exactly as long as the shape
      value does — value updates share the shape, so plans survive them.
      Mutex-sharded and FIFO-bounded per shard; safe from worker domains.

    - {b Tier 2 — result cache}: [(generation, guard hash, query hash,
      compact, enforce)] → rendered body.  A byte-budgeted LRU.  The
      caller passes as [generation] the store's
      {!Store.Shredded.generation_of} over the types the compiled guard
      reads ([Xmorph.Interp.t.reads]).  An
      {!Store.Shredded.update_values} stamps a fresh generation on the
      types it writes, so the entries of guards that read one of them die
      by key mismatch (no invalidation scan) and age out of the LRU under
      budget pressure, while the entries of every other guard stay live.
      The key holds no document name: a generation is never shared by
      two documents' stores.

    A process-global sink: {!enable} installs the cache, {!enabled} is
    one atomic load, and every entry point is a no-op returning
    immediately — allocating nothing — while disabled.  Lookups and
    insertions bump the
    [xmorph_cache_hits_total]/[xmorph_cache_misses_total]/
    [xmorph_cache_evictions_total] labeled families ([tier="plan"] /
    [tier="result"]) and the [xmorph_cache_bytes] resident gauge,
    interned when the cache is installed into the registry
    {!enable_into} is given (the serve daemon's own). *)

val enable_into : Xmobs.Metrics.t -> budget_bytes:int -> unit
(** Install a fresh cache (replacing any previous one), its families in
    the registry given.  [budget_bytes] bounds the result tier's
    resident body bytes; the plan tier is bounded by entry count.
    @raise Invalid_argument when [budget_bytes < 0]. *)

val enable : budget_bytes:int -> unit
(** {!enable_into} a registry of the cache's own, which nobody reads:
    for callers that read {!stats} only. *)

val disable : unit -> unit
(** Drop the cache and all entries. *)

val enabled : unit -> bool
(** One atomic load; the gate hot paths check. *)

(** {2 Tier 1 — plans} *)

val find_plan :
  guide_uid:int -> guard_hash:string -> enforce:bool ->
  Xmorph.Interp.t option
(** [None] when disabled (counting nothing) or on a miss (counted). *)

val add_plan :
  guide_uid:int -> guard_hash:string -> enforce:bool ->
  Xmorph.Interp.t -> unit
(** No-op when disabled.  Inserting into a full shard evicts its oldest
    plan (FIFO). *)

(** {2 Tier 2 — results} *)

(** Everything [Exec] needs to answer a request without touching the
    store: the rendered body plus the metadata that rides along in the
    response and the query log. *)
type result_entry = {
  body : string;
  is_query : bool;  (** body came from the query path, not the render path *)
  classification : string option;  (** information-loss class *)
  out_nodes : int;
}

val find_result :
  generation:int -> guard_hash:string -> query_hash:string ->
  compact:bool -> enforce:bool -> result_entry option
(** [generation] is the store's {!Store.Shredded.generation_of} over the
    types the body reads; [query_hash] is [""] for plain guard
    executions.  A hit refreshes
    the entry's LRU position.  [None] when disabled (counting nothing)
    or on a miss (counted). *)

val add_result :
  generation:int -> guard_hash:string -> query_hash:string ->
  compact:bool -> enforce:bool -> result_entry -> unit
(** No-op when disabled.  Evicts least-recently-used entries until the
    insertion fits the byte budget; a body larger than the whole budget
    is not cached at all. *)

(** {2 Introspection} *)

type stats = {
  plan_entries : int;
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  result_entries : int;
  result_hits : int;
  result_misses : int;
  result_evictions : int;
  bytes : int;  (** resident result-tier bytes (bodies + key overhead) *)
  budget_bytes : int;
}

val stats : unit -> stats option
(** [None] when disabled. *)

val to_json : unit -> Xmutil.Json.t
(** The [GET /debug/cache] document: [{"enabled": false}] when disabled;
    otherwise entries, budget, resident bytes, per-tier hit/miss/eviction
    counts and hit rates. *)
