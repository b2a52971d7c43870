(** Shared SDRAM: flat byte store plus a single-port contention model —
    an access arriving while the port is busy queues, which is what
    dominates the 'no CC' bars of Fig. 8 at 32 cores.

    Backed by a flat {!Mem.t}.  The byte/word accessors bounds-check
    (they can be fed arbitrary decoded addresses); line and blit paths
    are unchecked — their callers validate by construction. *)

type t

val create : size:int -> word_occupancy:int -> line_occupancy:int -> t
val size : t -> int

val contend : t -> now:int -> occupancy:int -> int
(** Queue an access starting at [now] that occupies the port for
    [occupancy] cycles; returns the wait before service begins. *)

val contend_word : t -> now:int -> int
val contend_line : t -> now:int -> int

val contend_burst : t -> now:int -> lines:int -> int
(** Queue once for a burst of [lines] back-to-back line transfers; the
    port stays held for the whole burst.  This is the batched
    cache-maintenance model selected by {!Config.t.batched}. *)

val blit_to : t -> addr:int -> Mem.t -> pos:int -> len:int -> unit
(** Bulk copy out of the SDRAM byte store (data path only — the caller
    charges the timing). *)

val blit_from : t -> addr:int -> Mem.t -> pos:int -> len:int -> unit
(** Bulk copy into the SDRAM byte store (data path only). *)

val read : t -> width:int -> int -> int
(** [read t ~width addr]: the byte ([width = 1]) or word ([width = 4])
    at [addr] as a plain [int], unsigned.
    @raise Invalid_argument outside the store. *)

val write : t -> width:int -> int -> int -> unit
(** Stores the low [8 * width] bits. *)

val read_u32 : t -> int -> int32
val write_u32 : t -> int -> int32 -> unit

val read_line : t -> int -> Mem.t -> pos:int -> len:int -> unit
(** Copy an aligned line out of the store into [Mem.t] at [pos]. *)

val write_line : t -> int -> Mem.t -> pos:int -> len:int -> unit
