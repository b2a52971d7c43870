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

(* The memo table: an open-addressing set of key strings.  [Hashtbl]
   costs two hash+probe passes per membership-then-add and allocates a
   bucket cell per insert; this set does one hash, one probe run, and
   stores the key string directly.  Keys are never empty (every state
   packs at least one program counter byte), so [""] marks a free
   slot. *)
module Seen : sig
  type t

  val create : unit -> t
  val add : t -> string -> bool
  (** [add t k] — insert; [true] iff [k] was not already present. *)

  val cardinal : t -> int
end = struct
  type t = {
    mutable slots : string array;  (* "" = empty *)
    mutable mask : int;            (* capacity - 1, capacity a power of 2 *)
    mutable count : int;
  }

  let create () = { slots = Array.make 4096 ""; mask = 4095; count = 0 }

  let rec insert slots mask k =
    (* linear probing from the key's hash *)
    let i = ref (Hashtbl.hash k land mask) in
    let result = ref true in
    (try
       while String.length (Array.unsafe_get slots !i) > 0 do
         if String.equal (Array.unsafe_get slots !i) k then begin
           result := false;
           raise Exit
         end;
         i := (!i + 1) land mask
       done;
       Array.unsafe_set slots !i k
     with Exit -> ());
    !result

  and grow t =
    let slots = Array.make (2 * Array.length t.slots) "" in
    let mask = (2 * Array.length t.slots) - 1 in
    Array.iter
      (fun k -> if String.length k > 0 then ignore (insert slots mask k))
      t.slots;
    t.slots <- slots;
    t.mask <- mask

  let add t k =
    let added = insert t.slots t.mask k in
    if added then begin
      t.count <- t.count + 1;
      (* keep load factor under 1/2 *)
      if 2 * t.count > Array.length t.slots then grow t
    end;
    added

  let cardinal t = t.count
end

(* Breadth-first exploration with memoization on packed state keys.  The
   litmus programs are tiny, but [limit] guards against writing one whose
   stream interleavings explode.  Parallelism lives one level up, across
   the independent (program, model) cells of {!enumerate_matrix}. *)
let enumerate ?(limit = 2_000_000) (module M : Models.SEM) (p : Lprog.t) :
    result =
  let seen = Seen.create () in
  let outcomes = ref Lprog.Outcome_set.empty in
  let queue = Queue.create () in
  let push st =
    if Seen.add seen (M.key st) then begin
      if Seen.cardinal seen > limit then
        raise (State_space_too_large (Seen.cardinal seen));
      Queue.add st queue
    end
  in
  push (M.init p);
  let stuck = ref 0 in
  while not (Queue.is_empty queue) do
    let st = Queue.pop queue in
    let final = M.is_final p st in
    if final then
      outcomes :=
        Lprog.Outcome_set.add
          (Lprog.outcome_to_string (M.outcome p st))
          !outcomes;
    let succs = M.successors p st in
    if succs = [] && not final then incr stuck;
    List.iter push succs
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

let pp_result ppf r =
  Fmt.pf ppf "%-28s %-24s {%a} (%d states%s)" r.program.Lprog.name r.model
    Fmt.(list ~sep:(any "; ") string)
    (outcomes_list r) r.states_explored
    (if r.stuck_states > 0 then
       Printf.sprintf ", %d STUCK" r.stuck_states
     else "")

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

(* Run one program under every model. *)
let compare_models ?limit ?pool (p : Lprog.t) : result list =
  match enumerate_matrix ?limit ?pool [ p ] with
  | [ row ] -> row
  | _ -> assert false

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
