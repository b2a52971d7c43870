(** A small concrete syntax for annotated programs, making {!Check} and
    {!Lower} usable as a standalone tool on files.

    One directive per line, ['#'] comments:
    {v
    program <name>
    obj <name> <bytes>
    thread
      entry_x <obj> | exit_x <obj> | entry_ro <obj> | exit_ro <obj>
      fence | flush <obj> | read <obj> | write <obj> | compute <n>
      loop <n> ... end
    v} *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse : string -> (Ir.program, error list) Result.t

val print : Ir.program -> string
(** Inverse of {!parse} (up to formatting): [parse (print p)] yields a
    program equal to [p]. *)
