/* Two system calls the OCaml Unix library does not expose: a
   monotonic nanosecond clock for latency and span timing, and wait4,
   which reaps one child together with the CPU time of exactly that
   process, not of every child so far. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

value tpan_load_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

value tpan_load_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}

/* [wait4 pid] blocks until [pid] exits and returns
   (exit code or -signal, user+system CPU seconds). */
value tpan_load_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal2(res, cpu);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid);
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  int code = WIFEXITED(status) ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? -WTERMSIG(status)
             : -255;
  cpu = caml_copy_double((double)ru.ru_utime.tv_sec + (double)ru.ru_utime.tv_usec * 1e-6 +
                         (double)ru.ru_stime.tv_sec + (double)ru.ru_stime.tv_usec * 1e-6);
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, cpu);
  CAMLreturn(res);
}
