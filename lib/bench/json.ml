(* Minimal JSON tree, printer and recursive-descent parser — just enough
   for the benchmark reports.  The repository deliberately has no
   third-party JSON dependency; reports are small and written/read only
   by this harness, so a ~100-line implementation beats a vendored one. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* ---------------- printing ---------------- *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

(* Two-space indented output, so committed baselines diff readably. *)
let to_string (v : t) : string =
  let b = Buffer.create 1024 in
  let pad n = Buffer.add_string b (String.make n ' ') in
  let rec go indent = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> Buffer.add_string b (num_to_string f)
    | Str s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
        Buffer.add_string b "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b ",\n";
            pad (indent + 2);
            go (indent + 2) x)
          xs;
        Buffer.add_char b '\n';
        pad indent;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string b ",\n";
            pad (indent + 2);
            Buffer.add_char b '"';
            escape b k;
            Buffer.add_string b "\": ";
            go (indent + 2) x)
          kvs;
        Buffer.add_char b '\n';
        pad indent;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* One line, no trailing newline — the framing unit of {!Pmc_serve}'s
   newline-delimited wire protocol, and the canonical form hashed into
   verdict-cache keys (key stability depends on this printer never
   changing its spacing). *)
let to_compact (v : t) : string =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> Buffer.add_string b (num_to_string f)
    | Str s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            escape b k;
            Buffer.add_string b "\":";
            go x)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ---------------- parsing ---------------- *)

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' | '\\' | '/' ->
              Buffer.add_char b e;
              go ()
          | 'n' ->
              Buffer.add_char b '\n';
              go ()
          | 'r' ->
              Buffer.add_char b '\r';
              go ()
          | 't' ->
              Buffer.add_char b '\t';
              go ()
          | 'b' ->
              Buffer.add_char b '\b';
              go ()
          | 'f' ->
              Buffer.add_char b '\012';
              go ()
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              (* ASCII round-trips; anything else degrades to '?', which
                 is fine for the identifiers this harness writes. *)
              Buffer.add_char b (if code < 0x80 then Char.chr code else '?');
              go ()
          | _ -> fail "bad escape")
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let str = String.sub s start (!pos - start) in
    match float_of_string_opt str with
    | Some f when Float.is_finite f -> Num f
    | Some _ -> fail ("number out of range " ^ str)
    | None -> fail ("bad number " ^ str)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec go () =
            items := parse_value () :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                go ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          go ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let items = ref [] in
          let rec go () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            items := (k, v) :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                go ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          go ();
          Obj (List.rev !items)
        end
    | Some c -> if num_char_start c then parse_number () else fail "bad value"
  and num_char_start = function '0' .. '9' | '-' -> true | _ -> false in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ---------------- accessors ----------------

   The wire and report records decode through {!Codec}; these two serve
   callers that read a few members of a free-form document. *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let get_str k v = match member k v with Some (Str s) -> Some s | _ -> None
let get_list k v = match member k v with Some (List l) -> Some l | _ -> None
