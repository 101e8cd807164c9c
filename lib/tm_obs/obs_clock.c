/* Monotonic nanoseconds as a tagged OCaml int: the span timers sit on
   TM commit and fence paths, so the clock read must not box.  63-bit
   nanoseconds since boot overflow after ~292 years. */

#include <caml/mlvalues.h>
#include <time.h>

CAMLprim value tm_obs_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
