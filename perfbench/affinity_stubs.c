/* CPU affinity of the calling thread, for Serving.pin: [cpu >= 0]
   restricts the thread to that CPU, [cpu < 0] allows every online CPU.
   Children spawned afterwards inherit the mask.  Returns false where the
   call fails or the platform has no sched_setaffinity. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>
#include <unistd.h>

CAMLprim value perfbench_set_affinity(value v_cpu)
{
  cpu_set_t set;
  long cpu = Long_val(v_cpu);
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  CPU_ZERO(&set);
  if (cpu >= 0) {
    if (cpu >= CPU_SETSIZE) return Val_false;
    CPU_SET(cpu, &set);
  } else {
    for (long i = 0; i < n && i < CPU_SETSIZE; i++) CPU_SET(i, &set);
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

#else

CAMLprim value perfbench_set_affinity(value v_cpu)
{
  (void)v_cpu;
  return Val_false;
}

#endif
