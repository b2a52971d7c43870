(* A small domain pool for embarrassingly parallel fan-out.

   The repo's heavy loops — bench cases, chaos soak seeds, litmus
   enumerations, batched discipline checks — are per-item independent and
   deterministic, so the only parallel machinery they need is "map an
   array, keep the order, keep the exceptions".  This pool provides
   exactly that on raw [Domain]/[Mutex]/[Condition], no dependencies:

   - [create ~jobs] starts [jobs - 1] worker domains (jobs = 1 starts
     none; jobs = 0 asks the runtime for a sensible width);
   - [map_ordered] hands out item indices from a shared counter under the
     pool mutex, workers and the calling domain both draw from it, and
     every result is stored at its input index — the output array is
     byte-for-byte the sequential map's output, whatever the schedule;
   - an exception inside [f] is caught, the batch still drains, and the
     failure with the *smallest input index* is re-raised with its
     original backtrace — the same exception a sequential left-to-right
     map would have surfaced first.

   Determinism contract: [f] must not depend on mutable state shared
   between items.  Domain-local state (see [Pmc.Shared.reset_ids]) is
   fine as long as [f] re-initializes it per item; this is what makes
   [--jobs N] output identical to [--jobs 1] across the CLIs. *)

type batch = {
  total : int;
  mutable next : int;       (* next unclaimed item index *)
  mutable completed : int;
  run_item : int -> unit;   (* runs item [i]; must not raise *)
}

type t = {
  jobs : int;
  m : Mutex.t;
  work : Condition.t;   (* signalled when a batch gains claimable items *)
  done_ : Condition.t;  (* signalled when a batch completes *)
  mutable batch : batch option;
  tasks : (unit -> unit) Queue.t;
      (* persistent task queue ([submit]); batches take priority *)
  mutable running_tasks : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let jobs t = t.jobs

let effective_jobs jobs =
  if jobs < 0 then invalid_arg "Pool.create: jobs must be >= 0"
  else if jobs = 0 then max 1 (Domain.recommended_domain_count ())
  else jobs

(* Claim the next item of the current batch, a queued task, or decide to
   wait/stop.  Called with [t.m] held; returns with [t.m] released. *)
let rec worker_step t =
  if t.stop then begin
    Mutex.unlock t.m;
    `Stop
  end
  else
    match t.batch with
    | Some b when b.next < b.total ->
        let i = b.next in
        b.next <- b.next + 1;
        Mutex.unlock t.m;
        `Run (b, i)
    | _ when not (Queue.is_empty t.tasks) ->
        let task = Queue.pop t.tasks in
        t.running_tasks <- t.running_tasks + 1;
        Mutex.unlock t.m;
        `Task task
    | _ ->
        Condition.wait t.work t.m;
        worker_step t

let finish_item t b =
  Mutex.lock t.m;
  b.completed <- b.completed + 1;
  if b.completed = b.total then Condition.broadcast t.done_;
  Mutex.unlock t.m

let finish_task t =
  Mutex.lock t.m;
  t.running_tasks <- t.running_tasks - 1;
  if t.running_tasks = 0 && Queue.is_empty t.tasks then
    Condition.broadcast t.done_;
  Mutex.unlock t.m

let rec worker_loop t =
  Mutex.lock t.m;
  match worker_step t with
  | `Stop -> ()
  | `Run (b, i) ->
      b.run_item i;
      finish_item t b;
      worker_loop t
  | `Task task ->
      task ();
      finish_task t;
      worker_loop t

let create ~jobs =
  let jobs = effective_jobs jobs in
  let t =
    {
      jobs;
      m = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      batch = None;
      tasks = Queue.create ();
      running_tasks = 0;
      stop = false;
      domains = [];
    }
  in
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.m;
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    List.iter Domain.join t.domains;
    t.domains <- []
  end
  else Mutex.unlock t.m

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map_ordered (type a b) (t : t) (input : a array) ~(f : a -> b) : b array =
  let n = Array.length input in
  let inline () = Array.map f input in
  if t.jobs = 1 || n <= 1 then inline ()
  else begin
    Mutex.lock t.m;
    if t.stop then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.map_ordered: pool is shut down"
    end;
    match t.batch with
    | Some _ ->
        (* Nested call (f itself mapped on this pool): run it inline
           rather than deadlock waiting for workers that are busy
           running f. *)
        Mutex.unlock t.m;
        inline ()
    | None ->
      let results : b option array = Array.make n None in
      (* first failure by input index — the one sequential order surfaces *)
      let failed : (int * exn * Printexc.raw_backtrace) option ref =
        ref None
      in
      let run_item i =
        match f input.(i) with
        | r -> results.(i) <- Some r
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock t.m;
            (match !failed with
            | Some (j, _, _) when j < i -> ()
            | _ -> failed := Some (i, e, bt));
            Mutex.unlock t.m
      in
      let b = { total = n; next = 0; completed = 0; run_item } in
      t.batch <- Some b;
      Condition.broadcast t.work;
      (* the calling domain draws from the same counter as the workers *)
      let rec drain () =
        if b.next < b.total then begin
          let i = b.next in
          b.next <- b.next + 1;
          Mutex.unlock t.m;
          b.run_item i;
          finish_item t b;
          Mutex.lock t.m;
          drain ()
        end
      in
      drain ();
      while b.completed < b.total do
        Condition.wait t.done_ t.m
      done;
      t.batch <- None;
      Mutex.unlock t.m;
      (match !failed with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> Array.map Option.get results)
  end

let map_list_ordered t l ~f =
  Array.to_list (map_ordered t (Array.of_list l) ~f)

(* ---------------- persistent task queue ----------------

   Batch maps are the right shape for the CLIs (a known work list, one
   synchronous fan-out), but a daemon accepts work over time.  [submit]
   enqueues one task; worker domains drain the queue whenever no batch
   is claiming them.  On a width-1 pool there are no worker domains, so
   the owner must run queued tasks itself via [run_pending_one] — this
   is what lets [pmc_serve --jobs 1] stay a strictly sequential,
   deterministic event loop. *)

let submit t task =
  Mutex.lock t.m;
  if t.stop then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task t.tasks;
  Condition.broadcast t.work;
  Mutex.unlock t.m

let run_pending_one t =
  Mutex.lock t.m;
  if Queue.is_empty t.tasks then begin
    Mutex.unlock t.m;
    false
  end
  else begin
    let task = Queue.pop t.tasks in
    t.running_tasks <- t.running_tasks + 1;
    Mutex.unlock t.m;
    task ();
    finish_task t;
    true
  end

let drain_tasks t =
  if t.jobs = 1 then while run_pending_one t do () done
  else begin
    (* run alongside the workers, then wait for stragglers *)
    while run_pending_one t do () done;
    Mutex.lock t.m;
    while t.running_tasks > 0 || not (Queue.is_empty t.tasks) do
      Condition.wait t.done_ t.m
    done;
    Mutex.unlock t.m
  end
