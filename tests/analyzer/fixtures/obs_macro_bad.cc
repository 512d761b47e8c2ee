// Fixture: side effects inside macros that may skip their arguments.
// Expected findings: 6 (one per macro invocation).
namespace cardir {

void Bad(int n, int depth, int* hits, const char** names, int i) {
  CARDIR_METRIC_COUNT("engine.calls", ++n);          // BAD: increment vanishes.
  CARDIR_TRACE_SPAN(names[i++]);                     // BAD: index bump vanishes.
  CARDIR_METRIC_GAUGE_SET("engine.depth", depth = *hits);  // BAD: assignment.
  CARDIR_RECORD_EVENT(kChunk, "classify", i++, n);   // BAD: bump vanishes.
  CARDIR_MEMSTAT_ALLOC("scratch", n += depth);       // BAD: accumulation.
  CARDIR_DCHECK(hits[i++] > 0);                      // BAD: gone in Release.
}

}  // namespace cardir
