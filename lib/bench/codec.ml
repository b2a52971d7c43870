(* Bidirectional JSON codecs: a record or tagged variant is declared once,
   as its fields in wire order, and both directions are read off that
   declaration.  A decode error is [Decode (path, problem)], the path
   outermost first; fields are read in declaration order, so it names
   the first offending one. *)

exception Decode of string list * string

type 'a t = { enc : 'a -> Json.t; dec : Json.t -> 'a; what : string }

type 'a obj = {
  put : 'a -> (string * Json.t) list;
  take : (string * Json.t) list -> 'a;
  keys : (string * string) list;  (* key, what its codec reads *)
}

let fail key problem = raise (Decode ([ key ], problem))

let mistyped what v =
  let s = Json.to_compact v in
  let s = if String.length s <= 40 then s else String.sub s 0 37 ^ "..." in
  raise (Decode ([], Printf.sprintf "mistyped: expected %s, got %s" what s))

let at step f x =
  try f x with Decode (path, p) -> raise (Decode (step :: path, p))

let prim what read enc =
  let dec v = match read v with Some x -> x | None -> mistyped what v in
  { what; enc; dec }

(* [Json.num_to_string] prints an integral double exactly only below 1e15
   in magnitude: a larger int would not survive its own encoding. *)
let int_fits n = n > -1_000_000_000_000_000 && n < 1_000_000_000_000_000

let int =
  prim "an integer of magnitude < 1e15"
    (function
      | Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
          Some (int_of_float f)
      | _ -> None)
    (fun n ->
      if int_fits n then Json.Num (float_of_int n)
      else invalid_arg (Printf.sprintf "Codec.int: %d prints inexactly" n))

(* Six significant digits are printed, and a non-integral value of 1e6
   or more reads back integral, which prints in full.  Each float is
   carried as the double its printed form denotes, in both directions:
   the bytes are a fixed point, and a decoded value is the one its
   encoding (a job's cache key) names. *)
let float =
  let exact f = float_of_string (Json.num_to_string f) in
  prim "a finite number"
    (function
      | Json.Num f when Float.is_finite (exact f) -> Some (exact f)
      | _ -> None)
    (fun f -> Json.Num (exact f))

let string =
  prim "a string" (function Json.Str s -> Some s | _ -> None) (fun s ->
      Json.Str s)

let bool =
  prim "a boolean" (function Json.Bool b -> Some b | _ -> None) (fun b ->
      Json.Bool b)

let list c =
  let dec = function
    | Json.List xs -> List.mapi (fun i -> at (Printf.sprintf "[%d]" i) c.dec) xs
    | v -> mistyped "a list" v
  in
  { what = "a list"; enc = (fun xs -> Json.List (List.map c.enc xs)); dec }

let nullable c =
  { what = c.what ^ " or null";
    enc = (function None -> Json.Null | Some x -> c.enc x);
    dec = (function Json.Null -> None | v -> Some (c.dec v)) }

let conv enc dec c =
  let dec v =
    match dec (c.dec v) with Ok x -> x | Error p -> raise (Decode ([], p))
  in
  { what = c.what; enc = (fun x -> c.enc (enc x)); dec }

let enum name all =
  let names = "one of " ^ String.concat ", " (List.map name all) in
  let dec v =
    let s = string.dec v in
    match List.find_opt (fun x -> name x = s) all with
    | Some x -> x
    | None -> mistyped names v
  in
  { string with enc = (fun x -> Json.Str (name x)); dec }

let obj o =
  let dec = function Json.Obj kvs -> o.take kvs | v -> mistyped "an object" v in
  { what = "an object"; enc = (fun x -> Json.Obj (o.put x)); dec }

(* ---------------- records ---------------- *)

type ('r, 'a) field = {
  put_f : 'r -> (string * Json.t) list -> (string * Json.t) list;
  take_f : (string * Json.t) list -> 'a;
  keys_f : (string * string) list;
}

let field ?default key c get =
  let take_f kvs =
    match (List.assoc_opt key kvs, default) with
    | Some v, _ -> at key c.dec v
    | None, Some d -> d
    | None, None -> fail key "missing"
  in
  { put_f = (fun r rest -> (key, c.enc (get r)) :: rest); take_f;
    keys_f = [ (key, c.what) ] }

let inline o get =
  { put_f = (fun r rest -> o.put (get r) @ rest); take_f = o.take;
    keys_f = o.keys }

(* Required int members under [keys], in order: a counter snapshot,
   read off its declared names. *)
let ints keys =
  let takes = List.map (fun k -> (field k int Fun.id).take_f) keys in
  { put = (fun a -> List.mapi (fun i k -> (k, int.enc a.(i))) keys);
    take = (fun kvs -> Array.of_list (List.map (fun take -> take kvs) takes));
    keys = List.map (fun k -> (k, int.what)) keys }

module Fields = struct
  type ('r, 'k) t =
    | [] : ('r, 'r) t
    | ( :: ) : ('r, 'a) field * ('r, 'k) t -> ('r, 'a -> 'k) t
end

let record (type r k) (make : k) (fields : (r, k) Fields.t) : r obj =
  let rec put : type k. (r, k) Fields.t -> r -> _ =
   fun fs r -> match fs with [] -> [] | f :: fs -> f.put_f r (put fs r)
  in
  (* [make] takes the fields one at a time, left to right *)
  let rec take : type k. (r, k) Fields.t -> _ -> k -> r =
   fun fs kvs make ->
    match fs with [] -> make | f :: fs -> take fs kvs (make (f.take_f kvs))
  in
  let rec keys : type k. (r, k) Fields.t -> _ = function
    | [] -> []
    | f :: fs -> f.keys_f @ keys fs
  in
  { put = put fields; take = (fun kvs -> take fields kvs make);
    keys = keys fields }

(* ---------------- tagged variants ---------------- *)

type 'a case =
  | Case : string * 'b obj * ('b -> 'a) * ('a -> 'b option) -> 'a case

let case tag body inj proj = Case (tag, body, inj, proj)

let const tag v =
  case tag (record () []) (fun () -> v) (fun x ->
      if x == v then Some () else None)

let variant key cases =
  let tag = enum (fun (Case (t, _, _, _)) -> t) cases in
  let rec put x = function
    | [] -> invalid_arg ("Codec.variant: no case for " ^ key)
    | Case (t, body, _, proj) :: rest -> (
        match proj x with
        | Some b -> (key, Json.Str t) :: body.put b
        | None -> put x rest)
  in
  let take kvs =
    let (Case (_, body, inj, _)) = (field key tag Fun.id).take_f kvs in
    inj (body.take kvs)
  in
  { put = (fun x -> put x cases); take; keys = [ (key, tag.what) ] }

(* ---------------- running ---------------- *)

let encode c x = c.enc x
let fields o x = o.put x

let keys ?only o =
  List.filter_map
    (fun (k, what) ->
      match only with Some c when c.what <> what -> None | _ -> Some k)
    o.keys

let decode c v =
  match c.dec v with
  | x -> Ok x
  | exception Decode (path, problem) ->
      let step i s = if i = 0 || s.[0] = '[' then s else "." ^ s in
      let path = String.concat "" (List.mapi step path) in
      Error (if path = "" then problem else path ^ " " ^ problem)

let decode_exn ~what c v =
  match decode c v with Ok x -> x | Error m -> failwith (what ^ ": " ^ m)
