(** The names of the pipeline's layer regions ({!Ctx.region}): the
    stages of Fig. 8, in pipeline order.  A layer call site names its
    region from here; the one dynamic name, a closest join's
    [closest(a->b)], is built by [Render.join_name].  Spans, profiler
    frames, the warehouse and the benchmark's per-layer figures all key
    on these strings. *)

val xml_parse : string
(** ["xml.parse"]: XML text to a tree. *)

val xml_index : string
(** ["xml.index"]: a tree (or forest) to the indexed document. *)

val store_shred : string
(** ["store.shred"]: an indexed document to a store. *)

val store_save : string
(** ["store.save"] *)

val store_load : string
(** ["store.load"] *)

val lex : string
(** ["lex"]: guard text to tokens. *)

val parse : string
(** ["parse"]: tokens to the guard's syntax tree. *)

val compile : string
(** ["compile"]: the data-free pipeline, parse to loss report. *)

val loss : string
(** ["loss"]: the information-loss analysis. *)

val render : string
(** ["render"]: a compiled shape rendered from a store. *)

val emit : string
(** ["emit"]: the render's output walk. *)

val xquery_eval : string
(** ["xquery.eval"]: an XQuery evaluation over a physical tree. *)

val logical_query : string
(** ["logical.query"]: an XQuery evaluation over the virtual
    transformed document. *)

val guard_transform : string
(** ["guard.transform"]: a guarded query's transformation. *)

val guard_infer : string
(** ["guard.infer"]: a guard inferred from a query. *)
