(* The reference I-cache: the original nested-array layout, one tag and
   one LRU array per set.  [Icache] stores the same state flat
   ([set * ways + way]); the qcheck property in test_cache.ml pins the
   two to the same hit/miss sequence. *)

type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  tags : int array array;  (* -1 = invalid *)
  lru : int array array;
  mutable tick : int;
}

let create ~sets ~ways ~line_bytes =
  {
    sets;
    ways;
    line_bytes;
    tags = Array.make_matrix sets ways (-1);
    lru = Array.make_matrix sets ways 0;
    tick = 0;
  }

let fetch_line t addr : bool =
  let set = addr / t.line_bytes mod t.sets in
  let tag = addr / t.line_bytes / t.sets in
  t.tick <- t.tick + 1;
  let hit = ref false in
  for w = 0 to t.ways - 1 do
    if t.tags.(set).(w) = tag then begin
      hit := true;
      t.lru.(set).(w) <- t.tick
    end
  done;
  if not !hit then begin
    (* evict LRU way *)
    let v = ref 0 in
    for w = 1 to t.ways - 1 do
      if t.lru.(set).(w) < t.lru.(set).(!v) then v := w
    done;
    t.tags.(set).(!v) <- tag;
    t.lru.(set).(!v) <- t.tick
  end;
  !hit

let invalidate_all t =
  Array.iter (fun set -> Array.fill set 0 (Array.length set) (-1)) t.tags
