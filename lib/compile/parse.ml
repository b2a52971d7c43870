(* A small concrete syntax for annotated programs, so the checker and the
   lowering pass work as a standalone tool on files rather than only on
   built-in examples.  One directive per line; '#' starts a comment.

     program <name>
     obj <name> <bytes>
     thread
       entry_x <obj> | exit_x <obj> | entry_ro <obj> | exit_ro <obj>
       fence | flush <obj>
       read <obj> | write <obj>
       compute <n>
       loop <n>
         ...
       end

   [parse] returns the IR program or a list of located syntax errors;
   [print] renders a program back (parse ∘ print = id, tested). *)

type error = { line : int; message : string }

let pp_error ppf { line; message } =
  Fmt.pf ppf "line %d: %s" line message

type token = { lnum : int; words : string list }

let tokenize (text : string) : token list =
  let lines = String.split_on_char '\n' text in
  List.filteri (fun _ _ -> true) lines
  |> List.mapi (fun i line ->
         let line =
           match String.index_opt line '#' with
           | Some j -> String.sub line 0 j
           | None -> line
         in
         {
           lnum = i + 1;
           words =
             String.split_on_char ' ' (String.trim line)
             |> List.concat_map (String.split_on_char '\t')
             |> List.filter (fun w -> w <> "");
         })
  |> List.filter (fun t -> t.words <> [])

exception Syntax of error

let fail lnum fmt =
  Fmt.kstr (fun message -> raise (Syntax { line = lnum; message })) fmt

let parse (text : string) : (Ir.program, error list) Result.t =
  try
    let tokens = tokenize text in
    let objects : (string, Ir.obj) Hashtbl.t = Hashtbl.create 8 in
    let name = ref "unnamed" in
    let threads = ref [] in
    let obj_of lnum oname =
      match Hashtbl.find_opt objects oname with
      | Some o -> o
      | None -> fail lnum "unknown object %S (declare it with 'obj')" oname
    in
    let int_of lnum s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> n
      | Some _ -> fail lnum "expected a count of zero or more, got %S" s
      | None -> fail lnum "expected a number, got %S" s
    in
    (* parse a statement list until a terminator ('end' for loops, 'thread'
       or end-of-file for threads) *)
    let rec stmts acc ~in_loop = function
      | [] ->
          if in_loop then fail 0 "missing 'end' for loop"
          else (List.rev acc, [])
      | ({ lnum; words } as tok) :: rest -> (
          match words with
          | [ "end" ] ->
              if in_loop then (List.rev acc, rest)
              else fail lnum "'end' outside a loop"
          | [ "thread" ] when not in_loop -> (List.rev acc, tok :: rest)
          | [ "entry_x"; o ] ->
              stmts (Ir.Entry_x (obj_of lnum o) :: acc) ~in_loop rest
          | [ "exit_x"; o ] ->
              stmts (Ir.Exit_x (obj_of lnum o) :: acc) ~in_loop rest
          | [ "entry_ro"; o ] ->
              stmts (Ir.Entry_ro (obj_of lnum o) :: acc) ~in_loop rest
          | [ "exit_ro"; o ] ->
              stmts (Ir.Exit_ro (obj_of lnum o) :: acc) ~in_loop rest
          | [ "fence" ] -> stmts (Ir.Fence :: acc) ~in_loop rest
          | [ "flush"; o ] ->
              stmts (Ir.Flush (obj_of lnum o) :: acc) ~in_loop rest
          | [ "read"; o ] ->
              stmts (Ir.Read (obj_of lnum o) :: acc) ~in_loop rest
          | [ "write"; o ] ->
              stmts (Ir.Write (obj_of lnum o) :: acc) ~in_loop rest
          | [ "compute"; n ] ->
              stmts (Ir.Compute (int_of lnum n) :: acc) ~in_loop rest
          | [ "loop"; n ] ->
              let n = int_of lnum n in
              let body, rest' = stmts [] ~in_loop:true rest in
              stmts (Ir.Loop (n, body) :: acc) ~in_loop rest'
          | w :: _ -> fail lnum "unknown or malformed directive %S" w
          | [] -> assert false)
    in
    let rec top = function
      | [] -> ()
      | { lnum; words } :: rest -> (
          match words with
          | [ "program"; n ] ->
              name := n;
              top rest
          | [ "obj"; oname; bytes ] ->
              if Hashtbl.mem objects oname then
                fail lnum "object %S declared twice" oname;
              Hashtbl.add objects oname
                (Ir.obj ~name:oname ~bytes:(int_of lnum bytes));
              top rest
          | [ "thread" ] ->
              let body, rest' = stmts [] ~in_loop:false rest in
              threads := body :: !threads;
              top rest'
          | w :: _ -> fail lnum "unknown directive %S at top level" w
          | [] -> assert false)
    in
    top tokens;
    Ok { Ir.pname = !name; threads = List.rev !threads }
  with Syntax e -> Error [ e ]

let print (p : Ir.program) : string =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "program %s\n" p.Ir.pname;
  List.iter
    (fun (o : Ir.obj) -> add "obj %s %d\n" o.Ir.oname o.Ir.obytes)
    (Ir.objects p);
  let rec stmt indent s =
    let pad = String.make indent ' ' in
    match s with
    | Ir.Entry_x o -> add "%sentry_x %s\n" pad o.Ir.oname
    | Ir.Exit_x o -> add "%sexit_x %s\n" pad o.Ir.oname
    | Ir.Entry_ro o -> add "%sentry_ro %s\n" pad o.Ir.oname
    | Ir.Exit_ro o -> add "%sexit_ro %s\n" pad o.Ir.oname
    | Ir.Fence -> add "%sfence\n" pad
    | Ir.Flush o -> add "%sflush %s\n" pad o.Ir.oname
    | Ir.Read o -> add "%sread %s\n" pad o.Ir.oname
    | Ir.Write o -> add "%swrite %s\n" pad o.Ir.oname
    | Ir.Compute n -> add "%scompute %d\n" pad n
    | Ir.Loop (n, body) ->
        add "%sloop %d\n" pad n;
        List.iter (stmt (indent + 2)) body;
        add "%send\n" pad
  in
  List.iter
    (fun th ->
      add "thread\n";
      List.iter (stmt 2) th)
    p.Ir.threads;
  Buffer.contents buf
