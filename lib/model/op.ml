(* Memory operations of the PMC model (Section IV-B of the paper).

   An operation is one of read / write / acquire / release / fence, executed
   by a process on a location.  The initial operation of a location (Def. 3)
   "behaves like a write and release" and is represented by its own
   constructor so that patterns can match it as either. *)

type kind =
  | Read
  | Write
  | Acquire
  | Release
  | Fence
  | Init  (* initial operation of a location: acts as write *and* release *)

(* [env_proc] is the pseudo-process that issues initial operations; the
   paper writes it as an epsilon "equivalent to all processes". *)
let env_proc = -1

(* [no_loc] is the location of a fence, which spans all locations. *)
let no_loc = -1

type t = {
  id : int;     (* issue index; unique within an execution *)
  kind : kind;
  proc : int;
  loc : int;
  value : int;  (* written value for writes/init, returned value for reads *)
}

let pp ppf (o : t) =
  match o.kind with
  | Fence -> Fmt.pf ppf "#%d:(F,p%d)" o.id o.proc
  | Init -> Fmt.pf ppf "#%d:(init,v%d=%d)" o.id o.loc o.value
  | Read -> Fmt.pf ppf "#%d:(r,p%d,v%d)=%d" o.id o.proc o.loc o.value
  | Write -> Fmt.pf ppf "#%d:(w,p%d,v%d):=%d" o.id o.proc o.loc o.value
  | Acquire -> Fmt.pf ppf "#%d:(A,p%d,v%d)" o.id o.proc o.loc
  | Release -> Fmt.pf ppf "#%d:(R,p%d,v%d)" o.id o.proc o.loc

let to_string = Fmt.to_to_string pp

(* Whether an operation acts as the given base kind.  [Init] acts as both a
   write and a release (Def. 3); everything else acts only as itself. *)
let acts_as (o : t) (k : kind) =
  match o.kind, k with
  | Init, (Write | Release) -> true
  | k', k when k' = k -> true
  | _ -> false

let is_write o = acts_as o Write
let is_release o = acts_as o Release
let is_read o = o.kind = Read
let is_fence o = o.kind = Fence

(* Patterns (Def. 2): [(operation, p, v, value)] subsets of O, where a
   [None] component acts as the paper's '*'. *)
type pattern = {
  p_kind : kind option;
  p_proc : int option;
  p_loc : int option;
  p_value : int option;
}

let pattern ?kind ?proc ?loc ?value () =
  { p_kind = kind; p_proc = proc; p_loc = loc; p_value = value }

let matches (pat : pattern) (o : t) =
  let opt_ok f = function None -> true | Some x -> f x in
  opt_ok (fun k -> acts_as o k) pat.p_kind
  && opt_ok (fun p -> p = env_proc || o.proc = p || o.proc = env_proc) pat.p_proc
  && opt_ok (fun v -> o.loc = v) pat.p_loc
  && opt_ok (fun x -> o.value = x) pat.p_value
