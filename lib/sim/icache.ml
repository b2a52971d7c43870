(* Instruction cache model: tags only (instruction bytes are never needed,
   only hit/miss timing).  Direct-mapped or set-associative.

   Tags and LRU stamps are flat [sets * ways] arrays (index
   [set * ways + way]), the layout [Cache] uses: two allocations per
   cache instead of one per set. *)

type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  tags : int array;  (* set * ways + way; -1 = invalid *)
  lru : int array;
  mutable tick : int;
}

let create ~sets ~ways ~line_bytes =
  {
    sets;
    ways;
    line_bytes;
    tags = Array.make (sets * ways) (-1);
    lru = Array.make (sets * ways) 0;
    tick = 0;
  }

let fetch_line t addr : bool =
  let base = addr / t.line_bytes mod t.sets * t.ways in
  let tag = addr / t.line_bytes / t.sets in
  t.tick <- t.tick + 1;
  let hit = ref false in
  for i = base to base + t.ways - 1 do
    if t.tags.(i) = tag then begin
      hit := true;
      t.lru.(i) <- t.tick
    end
  done;
  if not !hit then begin
    (* evict LRU way *)
    let v = ref base in
    for i = base + 1 to base + t.ways - 1 do
      if t.lru.(i) < t.lru.(!v) then v := i
    done;
    t.tags.(!v) <- tag;
    t.lru.(!v) <- t.tick
  end;
  !hit

let invalidate_all t = Array.fill t.tags 0 (Array.length t.tags) (-1)
