/* Monotonic nanoseconds as an OCaml int, for span boundaries. */
#include <time.h>

#include <caml/mlvalues.h>

value ly_now_ns(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
