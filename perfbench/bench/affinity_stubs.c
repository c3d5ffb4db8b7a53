/* Per-thread CPU affinity for the serve-open load generator. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* Restrict the calling thread to the CPUs set in [mask] (bit i = CPU i);
   threads and domains it spawns afterwards inherit the restriction.
   Returns false when the kernel refuses. */
value perfbench_set_cpus(value mask)
{
  cpu_set_t set;
  long m = Long_val(mask);
  CPU_ZERO(&set);
  for (int i = 0; i < 62 && i < CPU_SETSIZE; i++)
    if (m & (1L << i)) CPU_SET(i, &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

/* The calling thread's CPUs as a bit mask (CPUs 0-61), 0 on failure. */
value perfbench_get_cpus(value unit)
{
  cpu_set_t set;
  long m = 0;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_long(0);
  for (int i = 0; i < 62 && i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) m |= 1L << i;
  return Val_long(m);
}
