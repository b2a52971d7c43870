(* Exhaustive outcome enumeration of litmus programs under a model's
   operational semantics, plus the model-comparison machinery used to check
   the claims of Section IV-E mechanically. *)

type result = {
  program : Lprog.t;
  model : string;
  outcomes : Lprog.Outcome_set.t;
  states_explored : int;
  stuck_states : int;
      (* non-final states with no successor: deadlocks or livelocks, e.g.
         a hoisted acquire starving the lock holder's waiter *)
}

exception State_space_too_large of int

(* The memo table, which is also the BFS queue: keys are stored back to
   back in one byte arena, in insertion order, and an open-addressing
   table of key indexes finds them.  BFS queues exactly the keys [add]
   inserts, in the same order, so the queue is a cursor over the arena.
   Each key starts on a word boundary and is zero-padded to a whole
   word, as [Models.Key.pad] pads the probe buffer, so a probe hashes
   and compares whole words.  An edge to a known state allocates
   nothing, and a new state costs a copy into the arena rather than a
   heap block of its own. *)
module Seen : sig
  type t

  val create : int -> t

  val add : t -> Models.Key.t -> bool
  (** [add t k] — insert the key in [k]'s buffer; [true] iff it was not
      already present. *)

  val cardinal : t -> int

  val pop : t -> int
  (** The arena offset of the oldest key not popped yet, or -1. *)

  val arena : t -> Bytes.t
  (** Valid until the next [add]. *)
end = struct
  type t = {
    mutable slots : int array;
        (* 0 = free, else the key's index + 1 in the low bits and the
           high bits of its hash above them, so a probe skips a key of
           another hash without leaving the table *)
    mutable mask : int;  (* capacity - 1, capacity a power of 2 *)
    mutable arena : Bytes.t;
    mutable used : int;  (* arena bytes in use, a multiple of 8 *)
    mutable offs : int array;  (* key [j] starts at [arena.[offs.(j)]] *)
    mutable lens : int array;  (* and is [lens.(j)] bytes long *)
    mutable hashes : int array;  (* for [rehash] *)
    mutable count : int;
    mutable next : int;  (* the queue's head *)
  }

  let create hint =
    let cap = ref 16 in
    while !cap < 2 * hint do
      cap := 2 * !cap
    done;
    {
      slots = Array.make !cap 0;
      mask = !cap - 1;
      arena = Bytes.create (16 * !cap);
      used = 0;
      offs = Array.make (!cap / 2) 0;
      lens = Array.make (!cap / 2) 0;
      hashes = Array.make (!cap / 2) 0;
      count = 0;
      next = 0;
    }

  external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

  let words len = (len + 7) lsr 3

  (* Over whole words: the tail of the last one is zero. *)
  let hash buf len =
    let h = ref len in
    for w = 0 to words len - 1 do
      h := (!h lxor Int64.to_int (get64 buf (w lsl 3))) * 0x2127599bf4325c37;
      h := !h lxor (!h lsr 29)
    done;
    !h land max_int

  let index_bits = 31
  let slot h j = ((h lsr index_bits) lsl index_bits) lor (j + 1)

  (* Is key [j] the [len] bytes of [buf]? *)
  let equal t j buf len =
    t.lens.(j) = len
    &&
    let a = t.arena and at = t.offs.(j) in
    let w = ref 0 and n = words len in
    while !w < n && get64 a (at + (!w lsl 3)) = get64 buf (!w lsl 3) do
      incr w
    done;
    !w = n

  let rehash t =
    let cap = 2 * Array.length t.slots in
    let slots = Array.make cap 0 in
    let mask = cap - 1 in
    for j = 0 to t.count - 1 do
      let h = t.hashes.(j) in
      let i = ref (h land mask) in
      while slots.(!i) <> 0 do
        i := (!i + 1) land mask
      done;
      slots.(!i) <- slot h j
    done;
    t.slots <- slots;
    t.mask <- mask;
    let grow a =
      let b = Array.make (cap / 2) 0 in
      Array.blit a 0 b 0 t.count;
      b
    in
    t.offs <- grow t.offs;
    t.lens <- grow t.lens;
    t.hashes <- grow t.hashes

  (* Copy the key, with its zero padding, to the end of the arena. *)
  let append t buf len =
    let size = words len lsl 3 in
    if t.used + size > Bytes.length t.arena then begin
      let a = Bytes.create (max (t.used + size) (2 * Bytes.length t.arena)) in
      Bytes.blit t.arena 0 a 0 t.used;
      t.arena <- a
    end;
    Bytes.blit buf 0 t.arena t.used size;
    t.used <- t.used + size

  let add t (k : Models.Key.t) =
    Models.Key.pad k;
    let buf = k.Models.Key.buf and len = k.Models.Key.pos in
    let h = hash buf len in
    let tag = h lsr index_bits in
    let i = ref (h land t.mask) and found = ref false in
    while (not !found) && t.slots.(!i) <> 0 do
      let s = t.slots.(!i) in
      if
        s lsr index_bits = tag
        && equal t ((s land ((1 lsl index_bits) - 1)) - 1) buf len
      then found := true
      else i := (!i + 1) land t.mask
    done;
    (not !found)
    && begin
         (* load factor stays below 1/2, so the per-key arrays have
            room *)
         let j = t.count in
         t.offs.(j) <- t.used;
         t.lens.(j) <- len;
         t.hashes.(j) <- h;
         append t buf len;
         t.slots.(!i) <- slot h j;
         t.count <- j + 1;
         if 2 * t.count >= Array.length t.slots then rehash t;
         true
       end

  let cardinal t = t.count

  let pop t =
    if t.next < t.count then begin
      t.next <- t.next + 1;
      t.offs.(t.next - 1)
    end
    else -1

  let arena t = t.arena
end

let outcome_string (p : Lprog.t) (regs : int array) =
  Lprog.outcome_to_string
    (Array.init (Lprog.n_threads p) (fun t -> Array.sub regs (t * p.regs) p.regs))

(* Breadth-first exploration with memoization on packed state keys.  One
   scratch state is moved in place: each popped key is unpacked into it,
   and each move packs its successor's key into one reused buffer for the
   memo probe.  The visit order — and with it which exception a limit or
   a stray release raises first — is that of a queue of successor
   states.  The litmus programs are tiny, but [limit] guards against
   writing one whose stream interleavings explode.  Parallelism lives
   one level up, across the independent (program, model) cells of
   {!enumerate_matrix}. *)
let enumerate ?(limit = 2_000_000) (module M : Models.SEM) (p : Lprog.t) :
    result =
  let st = M.create p in
  let key = Models.Key.create () in
  let seen = Seen.create 256 in
  let push () =
    if Seen.add seen key && Seen.cardinal seen > limit then
      raise (State_space_too_large limit)
  in
  let visit () =
    Models.Key.reset key;
    M.pack st key;
    push ()
  in
  visit ();
  (* an outcome string is built once per distinct final register file *)
  let finals = Seen.create 16 in
  let regs_key = Models.Key.create () in
  let outcomes = ref Lprog.Outcome_set.empty in
  let stuck = ref 0 in
  let at = ref (Seen.pop seen) in
  while !at >= 0 do
    M.unpack st (Seen.arena seen) !at;
    let final = M.is_final st in
    if final then begin
      Models.Key.reset regs_key;
      Models.Key.add_row regs_key (M.regs st);
      if Seen.add finals regs_key then
        outcomes :=
          Lprog.Outcome_set.add (outcome_string p (M.regs st)) !outcomes
    end;
    if M.moves st visit = 0 && not final then incr stuck;
    at := Seen.pop seen
  done;
  {
    program = p;
    model = M.name;
    outcomes = !outcomes;
    states_explored = Seen.cardinal seen;
    stuck_states = !stuck;
  }

let outcomes_list r = Lprog.Outcome_set.elements r.outcomes

let allows r outcome_str = Lprog.Outcome_set.mem outcome_str r.outcomes

(* [subset_of r1 r2]: every outcome observable under r1's model is also
   observable under r2's — i.e. model 1 is at least as strong. *)
let subset_of r1 r2 = Lprog.Outcome_set.subset r1.outcomes r2.outcomes

(* Enumerate [programs × models], optionally fanning the independent
   explorations out over a domain pool.  Each enumeration owns all its
   state (memo table, queue), so the pool only changes wall-clock time;
   results come back grouped per program, in [models] order — exactly the
   sequential nesting. *)
let enumerate_matrix ?limit ?pool ?(models = Models.all)
    (programs : Lprog.t list) : result list list =
  let pairs =
    List.concat_map (fun p -> List.map (fun m -> (p, m)) models) programs
  in
  let f (p, m) = enumerate ?limit m p in
  let flat =
    match pool with
    | Some pool -> Pmc_par.Pool.map_list_ordered pool pairs ~f
    | None -> List.map f pairs
  in
  let per_program = List.length models in
  let rec regroup = function
    | [] -> []
    | flat ->
        let rec take n l =
          if n = 0 then ([], l)
          else
            match l with
            | [] -> invalid_arg "enumerate_matrix: short row"
            | x :: rest ->
                let row, rest = take (n - 1) rest in
                (x :: row, rest)
        in
        let row, rest = take per_program flat in
        row :: regroup rest
  in
  regroup flat

(* The ordering-strength claims of Section IV-E, as checkable predicates
   over a set of *uniform* (read/write-only) programs:
   SC ⊆ PC ⊆ CC ⊆ Slow (each weaker model allows at least the stronger
   model's outcomes). *)
let strength_chain_holds ?limit ?pool (programs : Lprog.t list) : bool =
  let models : (module Models.SEM) list =
    [ (module Models.Sc); (module Models.Pc); (module Models.Cc);
      (module Models.Slow) ]
  in
  enumerate_matrix ?limit ?pool ~models programs
  |> List.for_all (function
       | [ sc; pc; cc; slow ] ->
           subset_of sc pc && subset_of pc cc && subset_of cc slow
       | _ -> assert false)
