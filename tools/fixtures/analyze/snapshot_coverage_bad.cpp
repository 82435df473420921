// vmat-analyze fixture: snapshot-field-coverage positive. DriftingCounter
// saves sent_ but deliberately omits dropped_ — exactly the drift that
// leaks post-capture state into forked executions on restore. Expected
// findings: 1.

struct Writer {
  void pod_u64(unsigned long v);
};

struct Reader {
  unsigned long pod_u64();
};

class DriftingCounter {
 public:
  void record(unsigned long n, bool lost) {
    sent_ += n;
    if (lost) dropped_ += n;
  }

  void snapshot_save(Writer& w) const { w.pod_u64(sent_); }

  void snapshot_load(Reader& r) { sent_ = r.pod_u64(); }

 private:
  unsigned long sent_ = 0;
  unsigned long dropped_ = 0;  // finding: never touched by the pair
};
