(** Set-associative write-back, write-allocate data cache with true line
    storage: a dirty or stale line is really invisible to the backing
    store until software writes it back — the non-coherence that the
    paper's protocols manage.

    Maintenance matches the MicroBlaze of Section V-B: invalidate
    (discarding dirty data) or write-back + invalidate; a dirty line
    cannot be reconciled while staying resident.

    Line data lives in one flat {!Mem.t} with tags/dirty/LRU in parallel
    arrays; a timed access allocates nothing and records its outcome as
    an int bitmask read back via {!last}. *)

type t

type outcome = int
(** What one access did, as a bitmask — query with {!hit}, {!refilled},
    {!wrote_back}. *)

val hit : outcome -> bool

val refilled : outcome -> bool
(** A line was fetched from the backing store. *)

val wrote_back : outcome -> bool
(** A dirty victim was evicted to the backing store. *)

val create :
  sets:int ->
  ways:int ->
  line_bytes:int ->
  data:Mem.t ->
  backing_read:(int -> Mem.t -> int -> unit) ->
  backing_write:(int -> Mem.t -> int -> unit) ->
  t
(** [data] is the line store, at least [sets * ways * line_bytes]
    bytes, which the cache owns from then on; a machine cuts all its
    D-caches' stores from one mapping ({!Mem.create_views}).  Its
    contents are never read before a refill overwrites them.  The
    backing callbacks transfer whole aligned lines between the backing
    store and [line_bytes] bytes of a [Mem.t] at a position.
    @raise Invalid_argument if [sets] or [ways] is not positive or
    [data] is too small. *)

val line_addr : t -> int -> int
(** The aligned base address of the line containing an address. *)

(** {1 Timed accesses} — a store marks its line dirty (write-back); each
    access records its {!outcome} in {!last} for cycle accounting. *)

val load : t -> width:int -> int -> int
(** [load c ~width addr]: the byte ([width = 1]) or word ([width = 4])
    at [addr], unsigned, as a plain [int] — the hot-path primitive (no
    [int32] box).  The access must not cross a line. *)

val store : t -> width:int -> int -> int -> unit
(** Stores the low [8 * width] bits and marks the line dirty. *)

val load_u32 : t -> int -> int32
val store_u32 : t -> int -> int32 -> unit

val last : t -> outcome
(** Outcome of the most recent timed access.  Read it immediately —
    the next access on this cache overwrites it. *)

(** Result of a maintenance operation. *)
type maint = { lines_touched : int; lines_written_back : int }

val wb_inval_range : t -> addr:int -> len:int -> maint
(** Write back dirty lines in the range, then invalidate — the MicroBlaze
    "flush". *)

val inval_range : t -> addr:int -> len:int -> maint
(** Invalidate without write-back: cached modifications are lost. *)

val flush_all : t -> maint
(** Write back and invalidate every resident line. *)

val resident : t -> int -> bool
(** Is the line containing the address currently cached? *)

val dirty : t -> int -> bool
(** Is the line containing the address resident and modified? *)
