(* Flat byte store on a Bigarray — the backing representation of every
   simulated memory (tile-local memories, the shared SDRAM, cache line
   data).

   All indexed accessors are *unsafe*: callers are the address decoders
   and allocators, which establish bounds before any hot-path access, so
   the per-access cost is the load/store itself — no bounds check, no
   temporary buffer, no boxing beyond the [int32] result of [get_u32].
   Word access is little-endian, composed from four byte operations
   (Bigarray has no unaligned multi-byte view of a char array).

   [blit] is a manual byte loop rather than [Bigarray.Array1.sub] +
   [blit]: the sub descriptors are heap-allocated, and the loop keeps
   the simulator's steady state allocation-free.

   Zero on demand.  A store of at least one page is a private anonymous
   mapping (mem_stubs.c): the kernel hands out zero pages on first touch,
   so a machine pays only for the memory a run touches — a 1024-tile
   machine's 64 MiB of SDRAM and 64 MiB of tile memories mostly never
   become resident — and a fresh store is zero even when the process
   reuses memory it freed, as a second run in the daemon does.  Smaller
   stores (the 8 B scratch, 64 B staging and NoC payload buffers) keep
   [Bigarray.Array1.create] + [fill], where a syscall each would cost
   more than the fill.

   The mapping is charged to the GC exactly as [Bigarray.Array1.create]
   charges its malloc'd data ([caml_alloc_custom_mem] with the store's
   size), and this is load-bearing.  A variant on [Unix.map_file] of
   /dev/zero, which the GC does not count, let dead machines and the
   trace Recorder's rings wait longer for a major cycle: the verdict
   workload's peak RSS rose ~16% (60-63 -> 70.5-71.8 MB over 20 s runs),
   where the counted mapping held it at 31-36 MB. *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external page_size : unit -> int = "pmc_mem_page_size" [@@noalloc]
external create_zeroed : int -> t = "pmc_mem_create_zeroed"

(* the zero-on-demand threshold *)
let page = page_size ()

let create n : t =
  if n >= page then create_zeroed n
  else begin
    let a = Bigarray.Array1.create Bigarray.Char Bigarray.C_layout n in
    Bigarray.Array1.fill a '\000';
    a
  end

let length (m : t) = Bigarray.Array1.dim m

let[@inline] get_char (m : t) i = Bigarray.Array1.unsafe_get m i
let[@inline] set_char (m : t) i c = Bigarray.Array1.unsafe_set m i c
let[@inline] get_u8 (m : t) i = Char.code (Bigarray.Array1.unsafe_get m i)

let[@inline] set_u8 (m : t) i v =
  Bigarray.Array1.unsafe_set m i (Char.unsafe_chr (v land 0xff))

(* Unboxed word accessors: the value travels as a plain [int] holding
   the unsigned 32-bit pattern (reads) or any int whose low 32 bits are
   the value (writes).  The hot path — cache lines, machine loads and
   stores, the back-ends — stays entirely in immediate ints; only the
   API surface boxes an [int32]. *)
let[@inline] get_u32_int (m : t) i : int =
  let b0 = get_u8 m i
  and b1 = get_u8 m (i + 1)
  and b2 = get_u8 m (i + 2)
  and b3 = get_u8 m (i + 3) in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let[@inline] set_u32_int (m : t) i x =
  set_u8 m i x;
  set_u8 m (i + 1) (x lsr 8);
  set_u8 m (i + 2) (x lsr 16);
  set_u8 m (i + 3) (x lsr 24)

let[@inline] get_u32 (m : t) i : int32 = Int32.of_int (get_u32_int m i)
let[@inline] set_u32 (m : t) i (v : int32) = set_u32_int m i (Int32.to_int v)

let blit (src : t) src_pos (dst : t) dst_pos len =
  for k = 0 to len - 1 do
    Bigarray.Array1.unsafe_set dst (dst_pos + k)
      (Bigarray.Array1.unsafe_get src (src_pos + k))
  done

let blit_of_bytes (src : Bytes.t) src_pos (dst : t) dst_pos len =
  for k = 0 to len - 1 do
    Bigarray.Array1.unsafe_set dst (dst_pos + k)
      (Bytes.unsafe_get src (src_pos + k))
  done

let blit_to_bytes (src : t) src_pos (dst : Bytes.t) dst_pos len =
  for k = 0 to len - 1 do
    Bytes.unsafe_set dst (dst_pos + k)
      (Bigarray.Array1.unsafe_get src (src_pos + k))
  done

let to_bytes (src : t) ~pos ~len =
  let b = Bytes.create len in
  blit_to_bytes src pos b 0 len;
  b
