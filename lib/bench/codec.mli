(** Bidirectional JSON codecs over {!Json.t}.

    A record or tagged variant is declared once, as its fields in wire
    order; encoder and decoder both derive from it, so encodings are
    canonical.  Decoding is total: any tree decodes, or the error names
    the first offending field in declaration order and whether it is
    missing or mistyped ([results[0].metrics.p50 missing],
    [cores mistyped: expected an integer of magnitude < 1e15, got 4.7]).
    Undeclared keys are ignored. *)

type 'a t

type 'a obj
(** The members of an object: a record or a tagged variant. *)

val int : int t
(** Integers of magnitude below 1e15, which {!Json.num_to_string} prints
    exactly.  Encoding a larger one raises [Invalid_argument]; decoding
    refuses non-integral and out-of-range numbers. *)

val int_fits : int -> bool
(** Whether {!int} carries the value. *)

val float : float t
(** Finite numbers, carried both ways as the double their
    six-significant-digit printed form denotes: a decoded value
    re-encodes to its bytes, and is the value its encoding names. *)

val string : string t
val bool : bool t
val list : 'a t -> 'a list t
val nullable : 'a t -> 'a option t
(** [None] is [null]. *)

val conv : ('a -> 'b) -> ('b -> ('a, string) result) -> 'b t -> 'a t
(** [Error problem] refuses the value; the message is the field's path,
    a space, then [problem]. *)

val enum : ('a -> string) -> 'a list -> 'a t
(** One of a set, by name. *)

val obj : 'a obj -> 'a t

type ('r, 'a) field

val field : ?default:'a -> string -> 'a t -> ('r -> 'a) -> ('r, 'a) field
(** [field key c get]; with [default], the member may be absent. *)

val inline : 'a obj -> ('r -> 'a) -> ('r, 'a) field
(** A nested object's members, spliced into the enclosing one. *)

val ints : string list -> int array obj
(** An object of required {!int} members, one per key, in the keys'
    order: element [i] of the array is under key [i].  A decode error
    names the first missing or mistyped key. *)

module Fields : sig
  type ('r, 'k) t =
    | [] : ('r, 'r) t
    | ( :: ) : ('r, 'a) field * ('r, 'k) t -> ('r, 'a -> 'k) t
end

val record : 'k -> ('r, 'k) Fields.t -> 'r obj
(** [record make [ f1; ...; fn ]] (a list literal read as {!Fields.t}):
    [make] takes the decoded fields in order and may refuse a
    combination with {!fail}. *)

val fail : string -> string -> 'a
(** [fail key problem] refuses a decoded value, blaming field [key]. *)

type 'a case

val case : string -> 'b obj -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** [case tag body inj proj]: the values [proj] accepts. *)

val const : string -> 'a -> 'a case
(** A constant constructor (compared physically), without members. *)

val variant : string -> 'a case list -> 'a obj
(** [variant key cases]: the tag under [key] first, then the case's
    members.  An unknown tag is a mistyped [key]. *)

val encode : 'a t -> 'a -> Json.t
val fields : 'a obj -> 'a -> (string * Json.t) list

val keys : ?only:'b t -> 'a obj -> string list
(** Declared keys in wire order; with [only], those carried by a codec
    of the same shape as it (e.g. [~only:int]). *)

val decode : 'a t -> Json.t -> ('a, string) result

val decode_exn : what:string -> 'a t -> Json.t -> 'a
(** @raise Failure ["<what>: <message>"] where {!decode} errs. *)
