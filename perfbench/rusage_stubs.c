/* Peak resident set sizes from getrusage(2), in kilobytes. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

static value maxrss(int who)
{
  struct rusage ru;
  if (getrusage(who, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}

/* This process. */
value perfbench_self_maxrss_kb(value unit)
{
  (void)unit;
  return maxrss(RUSAGE_SELF);
}

/* The largest terminated and waited-for descendant. */
value perfbench_children_maxrss_kb(value unit)
{
  (void)unit;
  return maxrss(RUSAGE_CHILDREN);
}
