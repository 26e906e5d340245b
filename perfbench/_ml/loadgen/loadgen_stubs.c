/* Allocation-free system calls for the open-loop load generator.

   Every stub returns plain integers (negative for "would block" or an
   error) instead of raising, and none allocates on the OCaml heap, so
   the generator's send/receive loop never triggers a collection. */

#define _GNU_SOURCE
#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/mlvalues.h>

double lg_now_unboxed(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value lg_now(value unit) { return caml_copy_double(lg_now_unboxed(unit)); }

/* Timer slack defaults to 50 us; the generator's waits are shorter. */
value lg_tight_timers(value unit)
{
  (void)unit;
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  return Val_unit;
}

/* -1: would block; -2: other error; 0: EOF. */
value lg_read(value fd, value buf, value off, value len)
{
  ssize_t n = read(Int_val(fd), Bytes_val(buf) + Long_val(off), Long_val(len));
  if (n >= 0) return Val_long(n);
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return Val_long(-1);
  return Val_long(-2);
}

value lg_write(value fd, value buf, value off, value len)
{
  ssize_t n = write(Int_val(fd), String_val(buf) + Long_val(off), Long_val(len));
  if (n >= 0) return Val_long(n);
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return Val_long(-1);
  return Val_long(-2);
}

/* [lg_poll fds want_write revents n timeout]: fds and want_write are
   OCaml int arrays of length >= n; revents receives 1 (readable or
   hung up), 2 (writable), 3 (both) or 0.  Returns the ready count,
   0 on timeout or EINTR. */
#define LG_MAX_FDS 8
value lg_poll_unboxed(value fds, value want_write, value revents, value n,
                      double timeout)
{
  struct pollfd p[LG_MAX_FDS];
  long cnt = Long_val(n);
  if (cnt > LG_MAX_FDS) cnt = LG_MAX_FDS;
  for (long i = 0; i < cnt; i++) {
    p[i].fd = (int)Long_val(Field(fds, i));
    p[i].events = POLLIN | (Long_val(Field(want_write, i)) ? POLLOUT : 0);
    p[i].revents = 0;
  }
  if (timeout < 0) timeout = 0;
  struct timespec ts;
  ts.tv_sec = (time_t)timeout;
  ts.tv_nsec = (long)((timeout - (double)ts.tv_sec) * 1e9);
  int r = ppoll(p, (nfds_t)cnt, &ts, NULL);
  for (long i = 0; i < cnt; i++) {
    long ev = 0;
    if (p[i].revents & (POLLIN | POLLHUP | POLLERR)) ev |= 1;
    if (p[i].revents & (POLLOUT | POLLERR)) ev |= 2;
    Field(revents, i) = Val_long(ev);
  }
  return Val_long(r < 0 ? 0 : r);
}

value lg_poll(value fds, value want_write, value revents, value n, value timeout)
{
  return lg_poll_unboxed(fds, want_write, revents, n, Double_val(timeout));
}

/* Does [len] bytes of an OCaml bytes buffer equal the file's bytes at
   [file_off]?  Read with pread, so the generator maps no docroot page
   (a shared mapping would halve the server's Pss).  [len] is at most
   the generator's receive buffer. */
static char lg_scratch[1 << 18];

value lg_file_eq(value fd, value file_off, value buf, value off, value len)
{
  long n = Long_val(len);
  if (n > (long)sizeof lg_scratch) return Val_false;
  ssize_t r = pread(Int_val(fd), lg_scratch, n, Long_val(file_off));
  return Val_bool(r == n && memcmp(Bytes_val(buf) + Long_val(off), lg_scratch, n) == 0);
}
