(** Executions E = (P, V, O, ≺) and the Table I state-transition rules
    (Definitions 1, 3 and 4).

    An execution is a growing DAG over issued operations.  Every new
    operation adds ordering edges from all previously issued operations
    that match the corresponding Table I row; edges are never removed. *)

(** The four ordering relations of the model, attached to each edge:
    local order p≺ℓ (Def. 6, visible only to one process), program order
    ≺P (Def. 5), synchronization order ≺S (Def. 7) and fence order ≺F
    (Def. 8). *)
type edge_kind = Local of int | Program | Sync | Fence

val edge_kind_to_string : edge_kind -> string

(** One ordering edge: [src] precedes [dst] under [kind]. *)
type edge = { src : int; kind : edge_kind; dst : int }

type t = {
  procs : int;
  locs : int;
  mutable ops : Op.t array;
  mutable n_ops : int;
  mutable succs : (edge_kind * int) list array;
      (** outgoing edges, indexed by operation id *)
  mutable preds : (edge_kind * int) list array;
}

val create : ?init:(int -> int) -> procs:int -> locs:int -> unit -> t
(** Initialization (Def. 3): every location receives one [Init] operation
    writing its initial value ([init], default 0); the order ≺ starts
    empty. *)

val op : t -> int -> Op.t
(** [op exec id] — the operation with issue index [id]. *)

val n_ops : t -> int
(** Number of issued operations, including the initial ones. *)

val iter_ops : t -> (Op.t -> unit) -> unit
(** Visit operations in issue order. *)

val ops_list : t -> Op.t list
(** All operations, in issue order. *)

val edges : t -> edge list
(** Every edge of ≺ (not transitively reduced). *)

val execute :
  t -> Op.kind -> proc:int -> ?loc:int -> ?value:int -> unit -> Op.t
(** State transition (Def. 4): issue an operation and add the Table-I
    edges from every matching earlier operation.  Raises [Invalid_argument]
    on bad process/location ids or an attempt to issue [Init]. *)

(** Convenience wrappers around {!execute}, one per operation kind. *)

val read : t -> proc:int -> loc:int -> value:int -> Op.t
val write : t -> proc:int -> loc:int -> value:int -> Op.t
val acquire : t -> proc:int -> loc:int -> Op.t
val release : t -> proc:int -> loc:int -> Op.t
val fence : t -> proc:int -> Op.t

val pp : Format.formatter -> t -> unit
(** Operations then edges, one per line. *)
