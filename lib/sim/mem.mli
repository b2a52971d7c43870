(** Flat byte store on a [Bigarray.Array1] (char, c_layout) — the
    backing representation of every simulated memory: tile-local
    memories, the shared SDRAM and cache line data.

    The indexed accessors are {e unsafe} (no bounds checks): the address
    decoders and allocators that feed them establish validity first, so
    a hot-path access costs exactly the load or store.  Word access is
    little-endian.  [blit] and friends are manual loops — no temporary
    buffers, no sub-array descriptors — keeping the simulator's steady
    state allocation-free. *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Zero store of the given size in bytes.  From one page up the store
    is a private anonymous mapping, zero on demand: untouched pages
    cost no memory, and a fresh store reads zero even where the process
    reuses memory it freed.  The mapping is charged to the GC as the
    data of [Bigarray.Array1.create] is, so dead stores are reclaimed
    at the same pace (an uncounted mapping raised the verdict
    workload's peak RSS by ~16%).  Smaller stores are allocated and
    zero-filled.  A store compares, hashes and marshals like any other
    char Bigarray.  @raise Out_of_memory if the mapping fails. *)

val length : t -> int

val get_char : t -> int -> char
val set_char : t -> int -> char -> unit

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit

val get_u32_int : t -> int -> int
(** Unboxed word read: the unsigned 32-bit pattern as a plain [int]
    (little-endian), allocation-free. *)

val set_u32_int : t -> int -> int -> unit
(** Unboxed word write; only the low 32 bits of the value are stored. *)

val get_u32 : t -> int -> int32
(** Little-endian, any alignment. *)

val set_u32 : t -> int -> int32 -> unit

val blit : t -> int -> t -> int -> int -> unit
(** [blit src src_pos dst dst_pos len]. *)

val blit_of_bytes : Bytes.t -> int -> t -> int -> int -> unit
val blit_to_bytes : t -> int -> Bytes.t -> int -> int -> unit

val to_bytes : t -> pos:int -> len:int -> Bytes.t
(** Fresh [Bytes.t] copy of a range (cold paths only — it allocates). *)
