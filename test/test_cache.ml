(* Tests of the write-back D-cache model: hits, misses, eviction,
   write-back, the invalidate/flush maintenance operations, and functional
   equivalence with a flat memory. *)

open Pmc_sim

let make ?(sets = 4) ?(ways = 2) ?(line = 16) ?(size = 4096) () =
  let mem = Mem.create size in
  ( mem,
    Cache.create ~sets ~ways ~line_bytes:line
      ~data:(Mem.create (sets * ways * line))
      ~backing_read:(fun addr dst pos -> Mem.blit mem addr dst pos line)
      ~backing_write:(fun addr src pos -> Mem.blit src pos mem addr line) )

let test_miss_then_hit () =
  let _, c = make () in
  ignore (Cache.load_u32 c 0);
  Alcotest.(check bool) "first access misses" false (Cache.hit (Cache.last c));
  ignore (Cache.load_u32 c 4);
  Alcotest.(check bool) "same line hits" true (Cache.hit (Cache.last c));
  ignore (Cache.load_u32 c 16);
  Alcotest.(check bool) "next line misses" false (Cache.hit (Cache.last c))

let test_write_read_back () =
  let _, c = make () in
  Cache.store_u32 c 8 0xDEADBEEFl;
  let v = Cache.load_u32 c 8 in
  Alcotest.(check int32) "read back written value" 0xDEADBEEFl v

let test_dirty_not_in_backing () =
  let mem, c = make () in
  Cache.store_u32 c 0 7l;
  Alcotest.(check int32) "backing store still zero (write-back)" 0l
    (Mem.get_u32 mem 0);
  Alcotest.(check bool) "line dirty" true (Cache.dirty c 0)

let test_wb_inval_flushes () =
  let mem, c = make () in
  Cache.store_u32 c 0 7l;
  let r = Cache.wb_inval_range c ~addr:0 ~len:4 in
  Alcotest.(check int) "one line written back" 1 r.Cache.lines_written_back;
  Alcotest.(check int32) "backing updated" 7l (Mem.get_u32 mem 0);
  Alcotest.(check bool) "line gone" false (Cache.resident c 0)

let test_inval_discards () =
  let mem, c = make () in
  Cache.store_u32 c 0 7l;
  let r = Cache.inval_range c ~addr:0 ~len:4 in
  Alcotest.(check int) "nothing written back" 0 r.Cache.lines_written_back;
  Alcotest.(check int32) "modification lost (MicroBlaze invalidate)" 0l
    (Mem.get_u32 mem 0);
  Alcotest.(check bool) "line gone" false (Cache.resident c 0)

let test_eviction_writes_back () =
  (* 4 sets x 2 ways x 16B lines: three lines mapping to set 0 force an
     eviction *)
  let mem, c = make () in
  let set0_line n = n * 4 * 16 in
  Cache.store_u32 c (set0_line 0) 1l;
  Cache.store_u32 c (set0_line 1) 2l;
  Cache.store_u32 c (set0_line 2) 3l;
  Alcotest.(check bool) "eviction wrote back a dirty victim" true
    (Cache.wrote_back (Cache.last c));
  Alcotest.(check int32) "LRU victim (line 0) landed in backing" 1l
    (Mem.get_u32 mem (set0_line 0))

let test_lru_order () =
  let _, c = make () in
  let set0_line n = n * 4 * 16 in
  ignore (Cache.load_u32 c (set0_line 0));
  ignore (Cache.load_u32 c (set0_line 1));
  ignore (Cache.load_u32 c (set0_line 0));  (* refresh line 0 *)
  ignore (Cache.load_u32 c (set0_line 2));  (* evicts line 1 *)
  Alcotest.(check bool) "refreshed line survives" true
    (Cache.resident c (set0_line 0));
  Alcotest.(check bool) "LRU line evicted" false
    (Cache.resident c (set0_line 1))

let test_staleness () =
  (* the cache really holds stale data: backing changes are invisible
     until invalidation — the non-coherence the paper manages in software *)
  let mem, c = make () in
  ignore (Cache.load_u32 c 0);
  Mem.set_u32 mem 0 99l;
  let v = Cache.load_u32 c 0 in
  Alcotest.(check int32) "cached read is stale" 0l v;
  ignore (Cache.inval_range c ~addr:0 ~len:4);
  let v' = Cache.load_u32 c 0 in
  Alcotest.(check int32) "after invalidate the new value is seen" 99l v'

let test_flush_all () =
  let mem, c = make () in
  Cache.store_u32 c 0 1l;
  Cache.store_u32 c 64 2l;
  let r = Cache.flush_all c in
  Alcotest.(check int) "two lines written back" 2 r.Cache.lines_written_back;
  Alcotest.(check int32) "first landed" 1l (Mem.get_u32 mem 0);
  Alcotest.(check int32) "second landed" 2l (Mem.get_u32 mem 64)

let test_byte_ops () =
  let _, c = make () in
  Cache.store_u8 c 3 0xAB;
  let v = Cache.load_u8 c 3 in
  Alcotest.(check int) "byte read back" 0xAB v

(* Functional equivalence: random traffic through the cache (including
   wb_inval maintenance), then a full flush, must leave the backing store
   identical to a flat-memory replay, and every read must have returned
   the flat value. *)
let prop_flush_equiv =
  let gen =
    QCheck.(
      list_of_size Gen.(int_range 1 300)
        (triple (int_range 0 2) (int_range 0 255) (int_range 0 10000)))
  in
  QCheck.Test.make ~count:150 ~name:"cache ops + flush leave flat state"
    gen (fun ops ->
      let size = 1024 in
      let mem, c = make ~sets:4 ~ways:2 ~line:16 ~size () in
      let flat = Bytes.make size '\000' in
      let ok = ref true in
      List.iter
        (fun (op, word, v) ->
          let addr = word mod (size / 4) * 4 in
          match op with
          | 0 ->
              Cache.store_u32 c addr (Int32.of_int v);
              Bytes.set_int32_le flat addr (Int32.of_int v)
          | 1 ->
              let got = Cache.load_u32 c addr in
              if got <> Bytes.get_int32_le flat addr then ok := false
          | _ ->
              (* wb_inval keeps the contents equivalent (unlike inval) *)
              ignore (Cache.wb_inval_range c ~addr ~len:16))
        ops;
      ignore (Cache.flush_all c);
      !ok && Bytes.equal (Mem.to_bytes mem ~pos:0 ~len:size) flat)

(* The flat I-cache against the nested-array original (Icache_oracle):
   the same hit/miss sequence over random fetch streams mixed with
   [invalidate_all].  Half the fetches pile up to 3·ways distinct lines
   onto the first few sets, so every geometry conflicts and evicts;
   multi-way sets exercise the LRU victim order, which the goldens
   (direct-mapped) never reach.  The rest are uniform over three times
   the cache's size. *)
let prop_icache_flat_equiv =
  let gen =
    QCheck.Gen.(
      let* sets = oneofl [ 1; 2; 8; 512 ] in
      let* ways = int_range 1 4 in
      let conflict =
        let+ k = int_bound (3 * ways - 1)
        and+ set = int_bound (min sets 4 - 1)
        and+ off = int_bound 31 in
        (((k * sets) + set) * 32) + off
      in
      let uniform = int_bound (3 * sets * ways * 32) in
      let op =
        frequency
          [ (15, map Option.some conflict); (15, map Option.some uniform);
            (1, return None) ]
      in
      let+ ops = list_size (int_range 1 400) op in
      (sets, ways, ops))
  in
  let print (sets, ways, ops) =
    Printf.sprintf "sets=%d ways=%d [%s]" sets ways
      (String.concat "; "
         (List.map
            (function Some a -> string_of_int a | None -> "inval")
            ops))
  in
  QCheck.Test.make ~count:300 ~name:"icache: flat tags = nested reference"
    (QCheck.make ~print gen) (fun (sets, ways, ops) ->
      let flat = Icache.create ~sets ~ways ~line_bytes:32 in
      let nested = Icache_oracle.create ~sets ~ways ~line_bytes:32 in
      List.for_all
        (function
          | Some addr ->
              Icache.fetch_line flat addr
              = Icache_oracle.fetch_line nested addr
          | None ->
              Icache.invalidate_all flat;
              Icache_oracle.invalidate_all nested;
              true)
        ops)

let suite =
  ( "cache",
    [
      Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
      Alcotest.test_case "write / read back" `Quick test_write_read_back;
      Alcotest.test_case "write-back semantics" `Quick
        test_dirty_not_in_backing;
      Alcotest.test_case "wb_inval flushes" `Quick test_wb_inval_flushes;
      Alcotest.test_case "inval discards dirty data" `Quick
        test_inval_discards;
      Alcotest.test_case "eviction writes back" `Quick
        test_eviction_writes_back;
      Alcotest.test_case "LRU replacement" `Quick test_lru_order;
      Alcotest.test_case "stale reads until invalidate" `Quick
        test_staleness;
      Alcotest.test_case "flush_all" `Quick test_flush_all;
      Alcotest.test_case "byte operations" `Quick test_byte_ops;
      QCheck_alcotest.to_alcotest prop_flush_equiv;
      QCheck_alcotest.to_alcotest prop_icache_flat_equiv;
    ] )
