/* writev(2) over Bigarray-backed slices.
 *
 * The OCaml side hands us an array of slice records { buf; off; len }
 * where buf is a char Bigarray.  Bigarray data lives outside the OCaml
 * heap, so the base pointers collected while holding the runtime lock
 * stay valid after it is released for the syscall.
 */

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/bigarray.h>
#include <caml/threads.h>

#ifdef _WIN32

CAMLprim value flash_iovec_available(value unit)
{
  (void) unit;
  return Val_false;
}

CAMLprim value flash_iovec_writev(value vfd, value vslices, value vn)
{
  (void) vfd; (void) vslices; (void) vn;
  caml_failwith("Iovec.writev: not available on this platform");
}

CAMLprim value flash_iovec_resident(value vbuf)
{
  (void) vbuf;
  return Val_false;
}

#else

#include <caml/unixsupport.h>
#include <sys/uio.h>
#include <sys/mman.h>
#include <unistd.h>
#include <stdint.h>
#include <limits.h>
#include <errno.h>

/* Kept well under every platform's IOV_MAX; the OCaml side gathers at
 * most this many slices per call. */
#define FLASH_IOV_CAP 64

CAMLprim value flash_iovec_available(value unit)
{
  (void) unit;
  return Val_true;
}

CAMLprim value flash_iovec_writev(value vfd, value vslices, value vn)
{
  CAMLparam3(vfd, vslices, vn);
  struct iovec iov[FLASH_IOV_CAP];
  long n = Long_val(vn);
  long i;
  ssize_t ret;
  int fd = Int_val(vfd);

  if (n < 0) n = 0;
  if ((uintnat) n > Wosize_val(vslices)) n = Wosize_val(vslices);
  if (n > FLASH_IOV_CAP) n = FLASH_IOV_CAP;
#ifdef IOV_MAX
  if (n > IOV_MAX) n = IOV_MAX;
#endif
  for (i = 0; i < n; i++) {
    value s = Field(vslices, i); /* { buf : bigstring; off : int; len : int } */
    iov[i].iov_base = (char *) Caml_ba_data_val(Field(s, 0)) + Long_val(Field(s, 1));
    iov[i].iov_len = Long_val(Field(s, 2));
  }
  caml_release_runtime_system();
  ret = writev(fd, iov, (int) n);
  caml_acquire_runtime_system();
  if (ret == -1) caml_uerror("writev", Nothing);
  CAMLreturn(Val_long(ret));
}

/* Pages whose residency one mincore(2) call reports: 4 MB of 4 KB
 * pages, so the vector lives on the stack and a whole cache-sized
 * file takes one call. */
#define FLASH_MINCORE_PAGES 1024

/* true when every page of the mapping is in the page cache.  Allocates
 * nothing and touches no page, so it never faults; an unaligned base or
 * an error answers false (the caller then treats the file as cold). */
CAMLprim value flash_iovec_resident(value vbuf)
{
  unsigned char vec[FLASH_MINCORE_PAGES];
  char *base = (char *) Caml_ba_data_val(vbuf);
  size_t len = (size_t) Caml_ba_array_val(vbuf)->dim[0];
  long page = sysconf(_SC_PAGESIZE);
  size_t window, off, i, n;

  if (len == 0) return Val_true;
  if (page <= 0 || (uintptr_t) base % (uintptr_t) page != 0) return Val_false;
  window = (size_t) page * FLASH_MINCORE_PAGES;
  for (off = 0; off < len; off += window) {
    size_t chunk = len - off < window ? len - off : window;
    if (mincore(base + off, chunk, (void *) vec) != 0) return Val_false;
    n = (chunk + (size_t) page - 1) / (size_t) page;
    for (i = 0; i < n; i++)
      if (!(vec[i] & 1)) return Val_false;
  }
  return Val_true;
}

#endif
