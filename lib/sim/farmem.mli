(** Far-memory tier behind SDRAM: a persistence domain.

    Writes land in a volatile device cache and become durable only when
    a flush {!barrier} drains them into the media.  Reads serve
    committed (durable) data only, so nothing a tile can observe would
    be lost by a power cut — the "visible implies durable" discipline
    the crash checker's durable-prefix replay relies on.  A power cut
    abandons the device cache; {!image} is the durable state recovery
    starts from.

    The bottom of the address space is reserved for the [farmem]
    back-end's redo log — one {!log_slot_bytes}-sized slot per
    committing core, below an 8-byte superblock recording the slot
    geometry, so the log is fully self-describing and {!recover} works
    host-side on a restored image with no backend state.  Timing mirrors
    {!Sdram}: one port, busy-until contention, per-word occupancy;
    latency composition is the caller's job. *)

type t

val create : data_bytes:int -> word_occupancy:int -> slots:int -> t
(** A device with [slots] redo-log slots and [data_bytes] of allocatable
    capacity above the log region. *)

val size : t -> int

val log_slot_bytes : int
(** Size of one redo-log slot.  A commit's records (payload plus
    metadata) must fit one slot. *)

val slot_addr : t -> int -> int
(** Address of log slot [i]: [word 0] commit flag, [word 1] record
    count, then the records ([home] word, word count [n], [n] data
    words each). *)

val alloc : t -> name:string -> bytes:int -> int
(** Carve an 8-byte-aligned durable region and record it in the
    allocation directory.  @raise Failure on exhaustion. *)

val allocs : t -> (string * int * int) list
(** The allocation directory in allocation order: [(name, addr, bytes)].
    Host-side metadata — the crash checker uses it to enumerate every
    shared object of a durable image. *)

val contend : t -> now:int -> occupancy:int -> int
(** Port queuing delay before an access of the given occupancy can start
    (cf. {!Sdram.contend}). *)

val contend_words : t -> now:int -> words:int -> int
(** {!contend} for a burst of [words] words (at least one word of
    occupancy). *)

val read_u32_int : t -> int -> int
(** Committed (durable) word read. *)

val write_u32_int : t -> int -> int -> unit
(** Word write into the device cache; durable only after {!barrier}. *)

val blit_to : t -> addr:int -> Mem.t -> pos:int -> len:int -> unit
(** Burst read of committed data into a tile-side buffer. *)

val blit_from : t -> addr:int -> Mem.t -> pos:int -> len:int -> unit
(** Burst write into the device cache; durable only after {!barrier}. *)

val barrier : t -> int
(** Drain the device cache: every dirty byte becomes durable atomically
    (data moves at the start of the latency window).  Returns the number
    of bytes flushed. *)

val dirty_bytes : t -> int
(** Bytes written since the last barrier (would be lost by a cut now). *)

val accesses : t -> int
val barriers : t -> int
val bytes_flushed : t -> int

val poke_u32 : t -> int -> int -> unit
(** Untimed host-side initialization write, durable by definition (the
    state the platform was provisioned with before power-on). *)

val peek_u32 : t -> int -> int
(** Untimed host-side read of the durable media. *)

val image : t -> Bytes.t
(** The durable image: exactly the media bytes.  What survives a power
    cut. *)

val restore : t -> Bytes.t -> unit
(** Load a durable image into a fresh device (media and — restart —
    device cache).  @raise Invalid_argument on a size mismatch. *)

type sparse
(** A sparse durable image: the superblock, each log slot's flag and
    record count (plus its records when the flag is set), the allocated
    data region and the allocation directory — everything {!recover}
    and the crash checker read. *)

val sparse_image : t -> sparse
(** The durable state {!recover} starts from, copied in time
    proportional to the log in use and the bytes allocated, not to
    {!size}. *)

val of_sparse : word_occupancy:int -> sparse -> t
(** A fresh device holding a sparse image (media and — restart — device
    cache), with the image's allocation directory, sized to end at its
    last allocation.  Recovery and every allocated payload match the
    full {!image}/{!restore} round trip into a device of the original
    size. *)

type recovery = {
  committed : bool;     (** some committed slot was found (and re-applied) *)
  records : int;        (** records applied, across all slots *)
  words_applied : int;  (** total data words applied *)
}

val recover : t -> recovery
(** Replay the redo log on the durable media, slot by slot: re-apply
    every committed slot (then clear its commit flag), discard
    uncommitted ones untouched.  Slot order cannot matter — the object
    lock serializes commits, so at most one committed slot mentions any
    given object.  Idempotent: recovering twice from the same image
    yields byte-identical media, the property [test_crash] checks. *)
