(* The library's text boundaries are total: [Json.parse], the .pmc
   parser ([Pmc_compile.Parse.parse]) and [Topology.resolve] answer
   every input — arbitrary bytes, mutated valid inputs, ~100k-deep
   nesting and huge numbers — with a value or their documented error
   ([Json.Parse_error], [Error _]) and never raise anything else.
   Where an encoder exists, decoding its output gives the value back
   (for Json, [Test_bench]'s round-trip property). *)

module J = Pmc_bench.Json
module T = Pmc_sim.Topology
module Parse = Pmc_compile.Parse
open QCheck.Gen

let json_total s =
  match J.parse s with _ -> true | exception J.Parse_error _ -> true

let pmc_total s = match Parse.parse s with Ok _ | Error _ -> true

let topology_total s ~cores =
  match T.resolve s ~cores with Ok _ | Error _ -> true

(* One edit of a valid text: drop, insert or replace a byte, or cut the
   text short.  Inserted bytes favour the syntax's own punctuation. *)
let edit ~alphabet s =
  let n = String.length s in
  let* i = int_bound n in
  let* c = oneof [ char; oneofl (List.of_seq (String.to_seq alphabet)) ] in
  let before = String.sub s 0 i and from k = String.sub s k (n - k) in
  oneofl
    [ before ^ (if i < n then from (i + 1) else "");
      before ^ String.make 1 c ^ from i;
      before ^ String.make 1 c ^ (if i < n then from (i + 1) else "");
      before ]

let mutated ~alphabet gen =
  let* s = gen in
  let* edits = int_range 1 3 in
  let rec go k s =
    if k = 0 then return s else edit ~alphabet s >>= go (k - 1)
  in
  go edits s

let arbitrary = string_size ~gen:char (int_bound 64)

let prop name ~count gen f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name (QCheck.make ~print:String.escaped gen) f)

let repeat n s = String.concat "" (List.init n (fun _ -> s))
let deep = 100_000

(* ---------------- Json ---------------- *)

let json_text = map J.to_compact Test_bench.gen_json

let json_props =
  [ prop "Json.parse total on arbitrary bytes" ~count:2000 arbitrary json_total;
    prop "Json.parse total on mutated documents" ~count:2000
      (mutated ~alphabet:"[]{}:,\"\\-+.eE0123456789tfnul " json_text)
      json_total ]

let test_json_extremes () =
  let open_only = String.make deep '[' in
  (match J.parse open_only with
  | _ -> Alcotest.fail "an unclosed document parsed"
  | exception J.Parse_error _ -> ());
  let nested = open_only ^ String.make deep ']' in
  let v = J.parse nested in
  Alcotest.(check bool) "100k-deep array round-trips" true
    (J.parse (J.to_compact v) = v);
  Alcotest.(check bool) "100k-deep object prefix is total" true
    (json_total (repeat deep {|{"a":|}));
  List.iter
    (fun s -> Alcotest.(check bool) s true (json_total s))
    [ "1e999999"; "-1e-999999"; "123456789012345678901234567890";
      String.make 5000 '9'; "[1e309, -1e309]"; "0x10"; "1e"; "-"; "1.e5" ];
  (* JSON has no text for an infinity: a numeral that overflows is
     refused, so nothing parsed can print as [inf] *)
  List.iter
    (fun s ->
      match J.parse s with
      | _ -> Alcotest.failf "%s parsed" s
      | exception J.Parse_error _ -> ())
    [ "1e400"; "-1e400"; "[1e309, -1e309]"; "1e999999"; {|{"a": 1e400}|} ];
  (* every finite extreme still prints to text that reads back (to the
     printed six significant digits, so the text is a fixed point) *)
  List.iter
    (fun f ->
      let text = J.to_compact (J.Num f) in
      Alcotest.(check string) (Printf.sprintf "%h round-trips" f) text
        (J.to_compact (J.parse text)))
    [ Float.max_float; -.Float.max_float; Float.min_float; 4.9e-324;
      1e308; -1e-308; 0.0; 123456789012345678901234567890. ];
  Alcotest.(check bool) "integers round-trip exactly" true
    (List.for_all
       (fun n -> J.parse (J.to_compact (J.int n)) = J.int n)
       [ 0; -1; 999_999_999_999_999; -999_999_999_999_999 ])

(* ---------------- .pmc programs ---------------- *)

let pmc_text = map Parse.print Test_compile.gen_program

let pmc_props =
  [ prop "Parse.parse total on arbitrary bytes" ~count:2000
      (oneof [ arbitrary; map (fun s -> "program p\nthread\n" ^ s) arbitrary ])
      pmc_total;
    prop "Parse.parse total on mutated programs" ~count:2000
      (mutated ~alphabet:"\n #0123456789-xobjthreadloopend" pmc_text)
      pmc_total ]

let test_pmc_extremes () =
  let header = "program p\nobj o 4\nthread\n" in
  let loops =
    header ^ repeat deep "loop 2\n" ^ "read o\n" ^ repeat deep "end\n"
  in
  Alcotest.(check bool) "100k nested loops parse" true
    (Result.is_ok (Parse.parse loops));
  Alcotest.(check bool) "100k unclosed loops are an error" true
    (Result.is_error (Parse.parse (header ^ repeat deep "loop 2\n")));
  List.iter
    (fun s -> Alcotest.(check bool) (String.escaped s) true (pmc_total s))
    [ "program p\nobj o 99999999999999999999999\n";
      "program p\nobj o 4611686018427387903\nthread\nread o\n";
      "program p\nthread\ncompute 99999999999999999999\n";
      "program p\nthread\nloop 4611686018427387903\nend\n";
      "program p\nthread\nloop -1\nend\n" ];
  (* a negative count or size is a syntax error on its own line *)
  List.iter
    (fun (s, line) ->
      match Parse.parse s with
      | Error [ e ] -> Alcotest.(check int) (String.escaped s) line e.line
      | _ -> Alcotest.failf "%S: no single error" s)
    [ ("program p\nobj o -4\nthread\n", 2);
      ("program p\nobj o 4\nthread\nloop -1\nread o\nend\n", 4);
      ("program p\nthread\ncompute -5\n", 3);
      ("program p\nthread\nloop -1\nend\n", 3);
      ("program p\nobj o -4611686018427387904\n", 2) ];
  Alcotest.(check bool) "zero counts stay valid" true
    (Result.is_ok
       (Parse.parse "program p\nobj o 0\nthread\nloop 0\ncompute 0\nend\n"))

(* ---------------- topologies ---------------- *)

let gen_topology =
  let dim = int_range 1 40 in
  oneof
    [ return T.Star;
      map2 (fun x y -> T.Mesh { x; y }) dim dim;
      map2 (fun x y -> T.Torus { x; y }) dim dim;
      map2 (fun clusters size -> T.Hier { clusters; size }) dim dim ]

let cores = oneof [ oneofl [ 1; 4; 8; 32; 256; 1024 ]; int_range 1 5000 ]

let topology_name =
  oneof
    [ oneofl [ "star"; "mesh"; "torus"; "hier" ];
      map T.to_string gen_topology ]

let topology_props =
  [ prop "Topology.resolve total on arbitrary bytes" ~count:2000
      (oneof [ arbitrary; map (fun s -> "mesh:" ^ s) arbitrary ])
      (fun s -> topology_total s ~cores:32);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2000
         ~name:"Topology.resolve total on mutated names"
         (QCheck.make
            ~print:(fun (s, c) -> Printf.sprintf "%S ~cores:%d" s c)
            (pair
               (mutated ~alphabet:"x:0123456789-+_ " topology_name)
               cores))
         (fun (s, cores) -> topology_total s ~cores));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:1000 ~name:"Topology.resolve inverts to_string"
         (QCheck.make ~print:T.to_string gen_topology) (fun t ->
           let cores = match t with T.Star -> 32 | t -> T.tiles t in
           T.resolve (T.to_string t) ~cores = Ok t)) ]

let test_topology_extremes () =
  List.iter
    (fun (s, cores) ->
      Alcotest.(check bool) (Printf.sprintf "%s on %d" s cores) true
        (topology_total s ~cores))
    [ ("mesh:99999999999999999999x1", 4); ("hier:4611686018427387903x1", 1);
      ("torus:1x-4", 4); ("mesh:" ^ String.make 5000 '9' ^ "x2", 8);
      ("mesh", 1_000_000_007); (repeat deep "mesh:", 32) ];
  (* 4 × 2305843009213693953 wraps to 4: dimensions whose product
     overflows are refused, not wrapped onto a fit *)
  List.iter
    (fun (s, cores) ->
      Alcotest.(check bool) (Printf.sprintf "%s on %d is an error" s cores)
        true (Result.is_error (T.resolve s ~cores)))
    [ ("mesh:2305843009213693953x4", 4); ("hier:2305843009213693953x4", 4);
      ("torus:4x2305843009213693953", 4); ("hier:4611686018427387903x2", 2);
      ("mesh:99999999999999999999x1", 4); ("hier:4611686018427387903x1", 1) ];
  Alcotest.(check bool) "validate refuses a wrapping product" true
    (Result.is_error
       (T.validate (T.Hier { clusters = 2305843009213693953; size = 4 })
          ~cores:4))

let suite =
  ( "boundary",
    json_props @ pmc_props @ topology_props
    @ [ Alcotest.test_case "Json: deep nesting and huge numbers" `Quick
          test_json_extremes;
        Alcotest.test_case ".pmc: deep nesting and huge numbers" `Quick
          test_pmc_extremes;
        Alcotest.test_case "topology: huge dimensions" `Quick
          test_topology_extremes ] )
