// Fixture: pure-expression macro arguments. Expected findings: 0.
namespace cardir {

void Good(int n, bool strict) {
  ++n;  // Side effect hoisted out of the macro.
  CARDIR_METRIC_COUNT("engine.calls", n);
  CARDIR_METRIC_OBSERVE("engine.size", n <= 4 ? n : 4);  // <= is not =.
  const bool same = (n == 4);  // == inside an argument is a comparison.
  CARDIR_AUDIT(CheckInvariant(same, strict));
  CARDIR_RECORD_EVENT(kChunk, "classify", n, n - 1);  // Pure arguments.
  CARDIR_MEMSTAT_FREE("scratch", n * 2);              // * is not *=.
  CARDIR_PROFILE_FRAME("cdr.compute");
  CARDIR_DCHECK(n >= 0 && strict != same);            // >= and != compare.
}

}  // namespace cardir
