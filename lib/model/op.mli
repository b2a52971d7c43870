(** Memory operations of the PMC model (Section IV-B of the paper).

    The model has five operations — read, write, acquire, release, fence —
    plus the initial operation of each location, which "behaves like a
    write and release" (Def. 3). *)

(** Operation kinds.  [Init] is the per-location initial operation. *)
type kind = Read | Write | Acquire | Release | Fence | Init

val env_proc : int
(** The pseudo-process issuing initial operations (the paper's ε,
    "equivalent to all processes"). *)

val no_loc : int
(** The location of a fence, which spans all locations. *)

type t = {
  id : int;     (** issue index; unique within an execution *)
  kind : kind;
  proc : int;
  loc : int;
  value : int;  (** written value for writes, returned value for reads *)
}

val pp : Format.formatter -> t -> unit
(** E.g. [W p0 x=1 (#3)]. *)

val to_string : t -> string

val acts_as : t -> kind -> bool
(** [acts_as o k] — does [o] behave as the base kind [k]?  [Init] acts as
    both [Write] and [Release]. *)

(** Shorthand for {!acts_as} with each base kind ([Init] counts as both
    a write and a release). *)

val is_write : t -> bool
val is_release : t -> bool
val is_read : t -> bool
val is_fence : t -> bool

(** Patterns (Def. 2): [(operation, p, v, value)] subsets of the issued
    operations, where an omitted component is the paper's '∗'. *)
type pattern = {
  p_kind : kind option;
  p_proc : int option;
  p_loc : int option;
  p_value : int option;
}

val pattern :
  ?kind:kind -> ?proc:int -> ?loc:int -> ?value:int -> unit -> pattern

val matches : pattern -> t -> bool
(** [matches pat o] — does [o] belong to the subset [pat] describes?  The
    [env_proc] of initial operations matches any process pattern. *)
