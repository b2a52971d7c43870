(** Queries over the ordering relations of an execution (Defs. 5-10):
    the race test of {!Drf} and the reduced graphs of {!Dot} and the
    paper's figures. *)

(** Which edges are visible: [Global] is ≺G = ≺P ∪ ≺S ∪ ≺F (Def. 9) —
    what every process agrees on; [View p] is p≺ = ≺G ∪ p≺ℓ; [Full] is
    ≺ including every process's local edges (Def. 10). *)
type relation = Global | View of int | Full

val edge_visible : relation -> Execution.edge_kind -> bool
(** Does the relation include edges of this kind? *)

val reaches : relation -> Execution.t -> int -> int -> bool
(** [reaches rel exec a b] — is there a path from operation [a] to [b]
    using only edges visible under [rel]?  Irreflexive. *)

val concurrent : relation -> Execution.t -> int -> int -> bool
(** Neither reaches the other. *)

val transitive_reduction : relation -> Execution.t -> Execution.edge list
(** The minimal edge set with the same reachability — the paper's figures
    are drawn transitively reduced.  Parallel edges between one pair are
    collapsed. *)
