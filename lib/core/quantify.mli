(** Quantified information loss — the paper's Sec. X future work: "how to
    quantify the amount of potential information loss ... these could be
    refined, e.g., the transformation manufactures 30% new information".

    Where {!Loss} predicts loss statically from cardinalities, this module
    measures it exactly on the data: it computes the closest relation of the
    {e source} (restricted to the kept types) and of the {e output} (from
    the renderer's instance graph, without materializing any XML), maps
    output edges back to source-node pairs, and reports how many closest
    edges the transformation preserved, manufactured, and discarded — per
    type pair and in aggregate.

    This is Def. 5 made effective: the transformation is additive iff
    [added > 0], non-inclusive iff [lost > 0], reversible iff both are 0.

    The measurement is strictly finer than Theorems 1–2: the static
    conditions only flag a minimum that {e rises} from zero or a maximum
    that grows, so a guard that separates related types into different trees
    of the output forest (every cross-tree path cardinality drops to [0..0])
    is classified strongly-typed even though their closest edges are gone.
    [measure] reports those edges as [lost] — see the DESIGN.md discussion
    of this deliberate refinement. *)

type pair_delta = {
  from_type : string;  (** qualified source type *)
  to_type : string;
  source_edges : int;  (** closest edges between the two types in the source *)
  preserved : int;
  added : int;  (** edges in the output absent from the source *)
  lost : int;  (** source edges absent from the output *)
}

type t = {
  source_edges : int;  (** total closest edges among kept types *)
  preserved : int;
  added : int;
  lost : int;
  added_pct : float;  (** added / source_edges * 100 ("30% new information") *)
  lost_pct : float;
  reversible : bool;  (** no edges added and none lost (Def. 5) *)
  deltas : pair_delta list;  (** only the pairs where something changed *)
}

val measure : ?ctx:Xmobs.Ctx.t -> Store.Shredded.t -> Tshape.t -> t
(** Runs in a [quantify] region of [ctx]; the instance graph's joins are
    [closest(a->b)] regions under it, and every store read, the source
    pairs' included, is charged to [ctx].  One render context serves the
    instance graph and every pair
    ({!Render.instances_with_closest}), so each type's row is read once. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val to_json : t -> Xmutil.Json.t
