(* Observation semantics: last writes, readable values and data races
   (Section IV-D, Definitions 11 and 12).

   Reads return values "slowly": a read is guaranteed to see at least the
   last write ordered before it, but may also return any write that is not
   itself ordered before that last write (a newer value that has already
   propagated).  Two ordered reads must observe writes in a consistent
   direction (monotonicity).

   A test oracle: [History_oracle] answers every read with
   [readable_writes], and the tests pin Defs. 11-12 on hand-built
   executions.  Every query runs on a [Dag] closure. *)

open Pmc_model

(* Last writes before op [o] as seen by process [p] (Def. 11): the writes a
   to o's location with a p≺ o and no other write between.  Under a race
   the set has more than one element.  The default view is the issuing
   process's own (its local edges from the initial write guarantee the set
   is never empty, as Def. 11 requires). *)
(* Both passes below run on a bitset reachability closure (one ancestor
   row per operation, built by word-at-a-time unions): every "a ≺ b"
   question is then an O(1) bit test instead of a DFS. *)
let last_writes_in (c : Dag.closure) (exec : Execution.t) (o : Op.t) :
    Op.t list =
  let v = o.Op.loc in
  let row = Dag.ancestors_row c o.Op.id in
  let ws = ref [] in
  for i = min (Execution.n_ops exec) (Dag.Bits.length row) - 1 downto 0 do
    let a = Execution.op exec i in
    if Op.is_write a && a.Op.loc = v && Dag.Bits.get row i then
      ws := a :: !ws
  done;
  let ws = !ws in
  (* Maximality: drop a if some b in ws has a ≺ b — each test is one bit
     probe of b's closure row. *)
  List.filter
    (fun (a : Op.t) ->
      not
        (List.exists
           (fun (b : Op.t) -> b.id <> a.id && Dag.precedes c a.id b.id)
           ws))
    ws

let last_writes ?(view : int option) (exec : Execution.t) (o : Op.t) :
    Op.t list =
  let rel =
    match view with
    | Some p -> Order.View p
    | None -> if o.Op.proc >= 0 then Order.View o.Op.proc else Order.Global
  in
  last_writes_in (Dag.closure rel exec) exec o

(* Readable values for a read [o] by its process (Def. 12): the values of
   writes b such that some last write a satisfies a p⪯ b — i.e. b is not
   older than a last write.  Writes ordered strictly after o are excluded:
   they have not been issued from o's point of view. *)
let readable_writes (exec : Execution.t) (o : Op.t) : Op.t list =
  let p = o.Op.proc in
  let c = Dag.closure (Order.View p) exec in
  let lw = last_writes_in c exec o in
  let v = o.Op.loc in
  let n = Execution.n_ops exec in
  let out = ref [] in
  for i = n - 1 downto 0 do
    let b = Execution.op exec i in
    if
      Op.is_write b && b.Op.loc = v
      && (not (Dag.precedes c o.Op.id b.id))
      && List.exists
           (fun (a : Op.t) -> a.id = b.id || Dag.precedes c a.id b.id)
           lw
    then out := b :: !out
  done;
  !out

let readable_values exec o =
  List.sort_uniq compare
    (List.map (fun (w : Op.t) -> w.Op.value) (readable_writes exec o))

(* A data race on location v: two writes to v not ordered by ≺ (Def. 11's
   discussion: "If W contains multiple writes, reading the location is
   nondeterministic; a data-race occurred").  We flag write-write pairs; a
   read racing with a write manifests as |last_writes| > 1 or as a readable
   set with several values. *)
type race = { loc : int; a : Op.t; b : Op.t }

let write_write_races (exec : Execution.t) : race list =
  let c = Dag.closure Order.Full exec in
  let races = ref [] in
  for v = 0 to exec.Execution.locs - 1 do
    let ws = Dag.writes_of exec v in
    let rec pairs = function
      | [] -> ()
      | (a : Op.t) :: rest ->
          List.iter
            (fun (b : Op.t) ->
              if
                (not (Dag.precedes c a.id b.id))
                && not (Dag.precedes c b.id a.id)
              then races := { loc = v; a; b } :: !races)
            rest;
          pairs rest
    in
    pairs ws
  done;
  List.rev !races

let race_free exec = write_write_races exec = []

(* Deterministic read: exactly one readable value. *)
let deterministic_read exec o =
  match readable_values exec o with [ _ ] -> true | _ -> false
