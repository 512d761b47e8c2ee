// Fixture: the sanctioned scratch patterns. Expected findings: 0.
namespace cardir {

void Good(ThreadPool& pool) {
  // Per-participant scratch captured by reference into ParallelFor is the
  // engine's canonical pattern: ParallelFor is synchronous (joins before
  // returning), so the capture cannot dangle.
  std::vector<SweepScratch> scratch;
  pool.ParallelFor(100, 0, [&scratch](size_t begin, size_t end, size_t w) {
    FillRange(scratch[w], begin, end);
  });

  // By-value capture is safe everywhere, even into escaping APIs.
  SweepScratch seed;
  pool.Submit([seed] { ReadOnly(seed); });
}

}  // namespace cardir
