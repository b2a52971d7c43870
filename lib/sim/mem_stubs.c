/* Zero-on-demand byte stores for [Mem.create].

   [pmc_mem_create_zeroed n] maps [n] bytes of private anonymous memory
   and wraps them as a 1-D char Bigarray.  The kernel supplies zero pages
   on first touch, so a store costs only the pages a run writes or reads,
   and a fresh mapping is zero even when the process reuses memory it
   freed earlier.

   The block is allocated with [caml_alloc_custom_mem], charging [n]
   bytes to the GC exactly as [Bigarray.Array1.create] does: dead
   machines then drive major cycles at the same pace as before, and
   their mappings are returned promptly.  The finalizer unmaps.

   The custom operations reuse the Bigarray runtime's compare, hash and
   serialize functions under the Bigarray identifier, so polymorphic
   compare, hashing and [Marshal] treat a store exactly like any other
   char Bigarray (unmarshalling yields an ordinary malloc'd one).  The
   store is flagged [CAML_BA_MAPPED_FILE]: [Bigarray.Array1.sub] and
   friends copy the custom operations and share a proxy, as for
   [Unix.map_file], and the last view to die unmaps through it. */

#define CAML_INTERNALS
#include <sys/mman.h>
#include <unistd.h>
#include <stdlib.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/memory.h>

#ifndef MAP_ANONYMOUS
#define MAP_ANONYMOUS MAP_ANON
#endif

static void pmc_mem_finalize(value v)
{
  struct caml_ba_array *b = Caml_ba_array_val(v);
  if (b->proxy == NULL) {
    if (b->data != NULL) munmap(b->data, caml_ba_byte_size(b));
  } else if (atomic_fetch_sub(&b->proxy->refcount, 1) == 1) {
    munmap(b->proxy->data, b->proxy->size);
    free(b->proxy);
  }
}

static struct custom_operations pmc_mem_ops = {
  "_bigarr02",
  pmc_mem_finalize,
  caml_ba_compare,
  caml_ba_hash,
  caml_ba_serialize,
  caml_ba_deserialize,
  custom_compare_ext_default,
  custom_fixed_length_default
};

CAMLprim value pmc_mem_page_size(value unit)
{
  (void)unit;
  long p = sysconf(_SC_PAGESIZE);
  return Val_long(p > 0 ? p : 4096);
}

CAMLprim value pmc_mem_create_zeroed(value vn)
{
  intnat n = Long_val(vn);
  if (n <= 0) caml_invalid_argument("Mem.create");
  /* the block first, so a failed allocation cannot leak a mapping; it
     reads as empty (and unmaps nothing) until the mapping is in */
  value res = caml_alloc_custom_mem(&pmc_mem_ops,
                                    SIZEOF_BA_ARRAY + sizeof(intnat),
                                    (mlsize_t)n);
  struct caml_ba_array *b = Caml_ba_array_val(res);
  b->data = NULL;
  b->num_dims = 1;
  b->flags = CAML_BA_CHAR | CAML_BA_C_LAYOUT | CAML_BA_MAPPED_FILE;
  b->proxy = NULL;
  b->dim[0] = 0;
  void *data = mmap(NULL, (size_t)n, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) caml_raise_out_of_memory();
  b->data = data;
  b->dim[0] = n;
  return res;
}
