// Fixture: per-worker scratch captured by reference into lambdas that are
// handed to thread-escaping APIs. Expected findings: 2.
namespace cardir {

void Bad(ThreadPool& pool, TaskQueue& tasks) {
  SweepScratch scratch;
  // BAD: explicit by-reference capture into an async submission.
  pool.Submit([&scratch] { Fill(scratch); });

  CdrScratch cdr;
  // BAD: default-& capture, body touches the scratch object.
  tasks.push_back([&] { Fill(cdr); });
}

}  // namespace cardir
