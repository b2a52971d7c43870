(* Failure accounting and the order statistics the benchmark reports.

   Every checked output is one attempt; a wrong output or an exception
   escaping the call is one failure, recorded with a reason instead of
   aborting the run. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;  (** newest first *)
}

let create () = { attempted = 0; failed = 0; reasons = [] }

let check t ~what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.reasons <- what :: t.reasons
  end

(* Run [f] as one attempt: [Some v] when it returns, [None] (and one
   failure) when it raises. *)
let guard t ~what f =
  match f () with
  | v -> Some v
  | exception e ->
      check t ~what:(what ^ ": " ^ Printexc.to_string e) false;
      None

let fail_frac t =
  if t.attempted = 0 then 0. else float t.failed /. float t.attempted

(* ---------------- order statistics ---------------- *)

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Tally.median: empty";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Nearest rank of permille [p] among [n] samples (1-based), as
   {!Pmc_apps.Service.percentile} takes it. *)
let rank ~n p = min n (max 1 (((p * n) + 999) / 1000))

(* The highest percentile, at most [want] permille, that leaves at least
   ten samples beyond its nearest rank; [None] when [n <= 10]. *)
let tail_permille ~n ~want =
  if n <= 10 then None
  else
    let rec down p =
      if p <= 0 then None
      else if n - rank ~n p >= 10 then Some p
      else down (p - 1)
    in
    down want

let percentile xs ~permille =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Tally.percentile: empty";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s.(rank ~n permille - 1)

(* [tail xs ~want] is [(permille, value)] for {!tail_permille}, falling
   back to the median when too few samples lie beyond any percentile. *)
let tail xs ~want =
  match tail_permille ~n:(Array.length xs) ~want with
  | Some p -> (p, percentile xs ~permille:p)
  | None -> (500, percentile xs ~permille:500)
