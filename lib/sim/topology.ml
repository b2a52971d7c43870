(* Fabric topology of the simulated machine.

   The paper's platform connects its 32 tiles by a connectionless NoC
   that behaves like a star/ring: latency grows with hop distance but
   links are never modelled individually.  To scale the machine past the
   paper's geometry the fabric itself becomes a parameter:

     - [Star]   the seed topology: tiles on a bidirectional ring, hop
                count = ring distance, no per-link state.  This is the
                default and is byte-identical to the pre-topology
                simulator (the star goldens pin it).
     - [Mesh]   x × y grid, XY (dimension-ordered) routing: all X steps
                first, then all Y steps.  Deadlock-free and determinate.
     - [Torus]  mesh with wraparound links; each dimension takes the
                shorter way round (ties go the positive direction).
     - [Hier]   clusters of tiles around local hubs: a message climbs to
                its cluster hub, crosses the all-to-all hub fabric when
                the destination is remote, and descends — 2 hops inside
                a cluster, 3 between clusters.

   For the non-star fabrics every *directed physical link* has a stable
   integer id, so the NoC can keep a busy-until horizon per link (the
   contention model) and the fault plane can draw per-link outcomes (the
   by-hop chaos addressing).  [iter_route] enumerates the link ids of the
   unique route from src to dst, in path order; [hops] equals the number
   of links enumerated.  Star enumerates nothing: its logical link is
   identified by the (src, dst) pair itself, as in the seed. *)

type t =
  | Star
  | Mesh of { x : int; y : int }
  | Torus of { x : int; y : int }
  | Hier of { clusters : int; size : int }

let to_string = function
  | Star -> "star"
  | Mesh { x; y } -> Printf.sprintf "mesh:%dx%d" x y
  | Torus { x; y } -> Printf.sprintf "torus:%dx%d" x y
  | Hier { clusters; size } -> Printf.sprintf "hier:%dx%d" clusters size

let tiles = function
  | Star -> 0 (* any core count *)
  | Mesh { x; y } | Torus { x; y } -> x * y
  | Hier { clusters; size } -> clusters * size

let validate t ~cores =
  match t with
  | Star -> Ok t
  | Mesh { x = a; y = b } | Torus { x = a; y = b }
  | Hier { clusters = a; size = b } ->
      (* a product that would wrap could land on [cores] *)
      if a < 1 || b < 1 || a > max_int / b then
        Error
          (Printf.sprintf "topology %s does not fit a machine of %d tiles"
             (to_string t) cores)
      else if a * b = cores then Ok t
      else
        Error
          (Printf.sprintf "topology %s covers %d tiles, machine has %d"
             (to_string t) (a * b) cores)

(* Largest divisor of [n] at most sqrt(n): the near-square factorization
   used when a dimensioned topology is requested without dimensions. *)
let near_square n =
  let d = ref 1 in
  let i = ref 1 in
  while !i * !i <= n do
    if n mod !i = 0 then d := !i;
    incr i
  done;
  (!d, n / !d)

let parse_dims s =
  match String.index_opt s 'x' with
  | None -> None
  | Some i -> (
      let a = String.sub s 0 i
      and b = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when a >= 1 && b >= 1 -> Some (a, b)
      | _ -> None)

let resolve name ~cores =
  let dimensioned mk = function
    | None ->
        let a, b = near_square cores in
        validate (mk a b) ~cores
    | Some spec -> (
        match parse_dims spec with
        | Some (a, b) -> validate (mk a b) ~cores
        | None ->
            Error
              (Printf.sprintf "bad topology dimensions %S (want AxB)" spec))
  in
  let kind, spec =
    match String.index_opt name ':' with
    | None -> (name, None)
    | Some i ->
        ( String.sub name 0 i,
          Some (String.sub name (i + 1) (String.length name - i - 1)) )
  in
  match (kind, spec) with
  | "star", None -> Ok Star
  | "star", Some _ -> Error "star takes no dimensions"
  | "mesh", spec -> dimensioned (fun x y -> Mesh { x; y }) spec
  | "torus", spec -> dimensioned (fun x y -> Torus { x; y }) spec
  | "hier", spec ->
      dimensioned (fun clusters size -> Hier { clusters; size }) spec
  | _ ->
      Error
        (Printf.sprintf
           "unknown topology %S (star|mesh[:XxY]|torus[:XxY]|hier[:CxS])"
           name)

let names = [ "star"; "mesh"; "torus"; "hier" ]

(* ---------------- hop distance ---------------- *)

(* Per-dimension torus step count: the shorter way round. *)
let wrap_dist d len =
  let d = abs d in
  min d (len - d)

let hops t ~cores ~src ~dst =
  match t with
  | Star ->
      (* the seed's ring distance, verbatim — Config.hops dispatches here
         and the star goldens pin the result *)
      let d = abs (src - dst) in
      min d (cores - d)
  | Mesh { x; _ } ->
      abs ((src mod x) - (dst mod x)) + abs ((src / x) - (dst / x))
  | Torus { x; y } ->
      wrap_dist ((src mod x) - (dst mod x)) x
      + wrap_dist ((src / x) - (dst / x)) y
  | Hier { size; _ } ->
      if src = dst then 0
      else if src / size = dst / size then 2 (* up to the hub, down *)
      else 3 (* up, across the hub fabric, down *)

(* ---------------- directed link ids ---------------- *)

(* Mesh/torus: four outgoing links per node, id [4*node + dir] with
   dir 0 = +x, 1 = -x, 2 = +y, 3 = -y (border links of a mesh exist as
   ids but are never routed over).  Hier: tile→hub uplink [tile],
   hub→tile downlink [tiles + tile], hub a → hub b [2*tiles +
   a*clusters + b]. *)
let link_count t =
  match t with
  | Star -> 0
  | Mesh { x; y } | Torus { x; y } -> 4 * x * y
  | Hier { clusters; size } ->
      (2 * clusters * size) + (clusters * clusters)

(* One grid step from [node] toward [tx] in x (or [ty] in y), torus-aware.
   Returns (link id, next node). *)
let grid_step ~x ~y ~wrap node ~tx ~ty =
  let cx = node mod x and cy = node / x in
  if cx <> tx then begin
    let d = tx - cx in
    let forward = if wrap then wrap_dist d x = (x + d) mod x else d > 0 in
    if forward then ((4 * node) + 0, (cy * x) + ((cx + 1) mod x))
    else ((4 * node) + 1, (cy * x) + ((cx - 1 + x) mod x))
  end
  else begin
    let d = ty - cy in
    let forward = if wrap then wrap_dist d y = (y + d) mod y else d > 0 in
    if forward then ((4 * node) + 2, (((cy + 1) mod y) * x) + cx)
    else ((4 * node) + 3, (((cy - 1 + y) mod y) * x) + cx)
  end

let iter_route t ~cores ~src ~dst f =
  match t with
  | Star -> ignore cores
  | Mesh { x; y } | Torus { x; y } ->
      let wrap = match t with Torus _ -> true | _ -> false in
      let tx = dst mod x and ty = dst / x in
      let node = ref src in
      while !node <> dst do
        let link, next = grid_step ~x ~y ~wrap !node ~tx ~ty in
        f link;
        node := next
      done
  | Hier { clusters; size } ->
      if src <> dst then begin
        let tiles = clusters * size in
        let a = src / size and b = dst / size in
        f src; (* uplink to cluster hub *)
        if a <> b then f ((2 * tiles) + (a * clusters) + b);
        f (tiles + dst) (* downlink from the destination's hub *)
      end
