(** Fabric topology of the simulated machine.

    The seed machine's tiles sit on a star/ring NoC whose latency grows
    with hop distance but whose links carry no individual state.  To
    scale past the paper's 32-tile geometry the fabric is a parameter:
    2D mesh and torus grids with XY dimension-ordered routing, and
    hierarchical clusters around local hubs (2 hops inside a cluster,
    3 between clusters).  {!Star} remains the default and is
    byte-identical to the pre-topology simulator.

    For non-star fabrics every directed physical link has a stable
    integer id: the NoC keeps a busy-until horizon per link (the
    contention model) and the fault plane draws per-link outcomes (the
    by-hop chaos addressing).  See [docs/TOPOLOGY.md] for diagrams and
    the routing/contention model. *)

type t =
  | Star  (** the seed ring: hop count = ring distance, no link state *)
  | Mesh of { x : int; y : int }  (** x×y grid, XY routing *)
  | Torus of { x : int; y : int }
      (** x×y grid with wraparound; each dimension takes the shorter way
          round, ties in the positive direction *)
  | Hier of { clusters : int; size : int }
      (** [clusters] clusters of [size] tiles, each around a local hub;
          hubs are all-to-all.  Tile [i] belongs to cluster [i / size]. *)

val to_string : t -> string
(** ["star"], ["mesh:4x8"], ["torus:16x16"], ["hier:32x32"] — the
    rendering accepted back by {!resolve} and used in bench case ids and
    job keys. *)

val resolve : string -> cores:int -> (t, string) result
(** Parse a topology name.  Accepts the bare kinds [star], [mesh],
    [torus], [hier] — the dimensioned kinds pick the near-square
    factorization of [cores] — or explicit dimensions such as
    [mesh:4x8] / [hier:32x32], which must cover exactly [cores] tiles. *)

val validate : t -> cores:int -> (t, string) result
(** Check that a topology covers exactly [cores] tiles ({!Star} covers
    any count).  Dimensions below 1, or whose product overflows [int],
    are an [Error] too. *)

val names : string list
(** The four topology kind names, for CLI help and error messages. *)

val tiles : t -> int
(** Tiles a dimensioned topology covers; [0] for {!Star} (any count). *)

val wrap_dist : int -> int -> int
(** [wrap_dist d len] — distance of a signed per-dimension offset [d] on
    a wraparound dimension of extent [len]: [min |d| (len - |d|)]. *)

val hops : t -> cores:int -> src:int -> dst:int -> int
(** Number of physical links on the route from [src] to [dst]: ring
    distance for {!Star}, Manhattan distance for {!Mesh}, wrapped
    Manhattan distance for {!Torus}, 2 intra-cluster / 3 inter-cluster
    for {!Hier}.  Equals the number of links {!iter_route} enumerates
    (for non-star fabrics). *)

val link_count : t -> int
(** Number of directed physical link ids ([0] for {!Star}): 4 per node
    for grids (border links of a mesh exist as ids but are never routed
    over), per-tile up/downlinks plus the all-to-all hub fabric for
    {!Hier}. *)

val iter_route : t -> cores:int -> src:int -> dst:int -> (int -> unit) -> unit
(** [iter_route t ~cores ~src ~dst f] calls [f] with each directed link
    id on the unique route from [src] to [dst], in path order.  {!Star}
    enumerates nothing — its logical (src, dst) link is identified by
    the pair itself, as in the seed machine. *)
