// A forwarding UnixEnv that charges host time to the layer each call enters.
//
// Applications run unchanged against it. Every call is timed from outside the
// simulator: from entry until the next return it is charged to its call kind
// (file, meta, proc, compute: the work below the UnixEnv boundary), and from
// its return until the same program's next call to that program's own
// `apps.<program>.self_s`. Spawned and forked children are wrapped too, so a
// whole process tree is attributed.
#ifndef PERFBENCH_TRACED_ENV_H_
#define PERFBENCH_TRACED_ENV_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exos/unix_env.h"
#include "timeline.h"

namespace perfbench {

// Bucket ids for the call kinds below the UnixEnv boundary.
struct EnvBuckets {
  explicit EnvBuckets(Timeline* timeline)
      : tl(timeline),
        file(timeline->Bucket("exos.file_s")),
        meta(timeline->Bucket("exos.meta_s")),
        proc(timeline->Bucket("exos.proc_s")),
        compute(timeline->Bucket("exos.compute_s")) {}

  int App(const std::string& program) { return tl->Bucket("apps." + program + ".self_s"); }

  Timeline* tl;
  int file;
  int meta;
  int proc;
  int compute;
  uint64_t calls = 0;
  uint32_t next_tid = 1;  // Perfetto thread id per process (never the simulated pid)
};

class TracedEnv : public exo::os::UnixEnv {
  // Defined ahead of the overrides, which need its deduced return type.
  template <class F>
  decltype(auto) Call(int bucket, const char* name, F&& f) const {
    ++b_->calls;
    return TimedCall(b_->tl, bucket, app_, name, tid_, span_, std::forward<F>(f));
  }

 public:
  TracedEnv(exo::os::UnixEnv& inner, EnvBuckets* b, std::string program, uint64_t span,
            uint32_t tid)
      : inner_(inner), b_(b), program_(std::move(program)), app_(b->App(program_)),
        span_(span), tid_(tid) {}

  // Wraps a process body: the process span covers the body, which starts in
  // the program's own code and hands its exit to the process layer.
  static std::function<void(exo::os::UnixEnv&)> Wrap(
      EnvBuckets* b, std::string program, std::function<void(exo::os::UnixEnv&)> body) {
    return [b, program = std::move(program), body = std::move(body)](exo::os::UnixEnv& child) {
      const uint32_t tid = b->next_tid++;
      const uint64_t span = b->tl->Begin(b->App(program), b->tl->Intern(program), tid, 0);
      TracedEnv env(child, b, program, span, tid);
      body(env);
      b->tl->End(span, b->proc);
    };
  }

  int GetPid() override { return Call(b_->proc, "getpid", [&] { return inner_.GetPid(); }); }
  uint16_t Uid() const override { return Call(b_->proc, "uid", [&] { return inner_.Uid(); }); }

  exo::Result<int> Open(const std::string& path, bool create) override {
    return Call(b_->file, "open", [&] { return inner_.Open(path, create); });
  }
  exo::Status Close(int fd) override {
    return Call(b_->file, "close", [&] { return inner_.Close(fd); });
  }
  exo::Result<uint32_t> Read(int fd, std::span<uint8_t> out) override {
    return Call(b_->file, "read", [&] { return inner_.Read(fd, out); });
  }
  exo::Result<uint32_t> Write(int fd, std::span<const uint8_t> data) override {
    return Call(b_->file, "write", [&] { return inner_.Write(fd, data); });
  }
  exo::Result<uint64_t> Seek(int fd, uint64_t off) override {
    return Call(b_->file, "seek", [&] { return inner_.Seek(fd, off); });
  }
  exo::Result<exo::fs::FileStat> FStat(int fd) override {
    return Call(b_->file, "fstat", [&] { return inner_.FStat(fd); });
  }

  exo::Result<exo::fs::FileStat> Stat(const std::string& path) override {
    return Call(b_->meta, "stat", [&] { return inner_.Stat(path); });
  }
  exo::Result<std::vector<exo::fs::DirEnt>> ReadDir(const std::string& path) override {
    return Call(b_->meta, "readdir", [&] { return inner_.ReadDir(path); });
  }
  exo::Status Mkdir(const std::string& path) override {
    return Call(b_->meta, "mkdir", [&] { return inner_.Mkdir(path); });
  }
  exo::Status Unlink(const std::string& path) override {
    return Call(b_->meta, "unlink", [&] { return inner_.Unlink(path); });
  }
  exo::Status Rename(const std::string& from, const std::string& to) override {
    return Call(b_->meta, "rename", [&] { return inner_.Rename(from, to); });
  }
  exo::Status Sync() override { return Call(b_->meta, "sync", [&] { return inner_.Sync(); }); }

  exo::Result<std::pair<int, int>> Pipe() override {
    return Call(b_->proc, "pipe", [&] { return inner_.Pipe(); });
  }
  exo::Result<int> Spawn(const std::string& program,
                         std::function<void(exo::os::UnixEnv&)> body) override {
    return Call(b_->proc, "spawn",
                [&] { return inner_.Spawn(program, Wrap(b_, program, std::move(body))); });
  }
  exo::Result<int> Fork(std::function<void(exo::os::UnixEnv&)> body) override {
    return Call(b_->proc, "fork",
                [&] { return inner_.Fork(Wrap(b_, program_, std::move(body))); });
  }
  exo::Result<int> Wait(int pid) override {
    return Call(b_->proc, "wait", [&] { return inner_.Wait(pid); });
  }
  exo::Result<int> WaitAny() override {
    return Call(b_->proc, "waitany", [&] { return inner_.WaitAny(); });
  }
  void Yield() override { Call(b_->proc, "yield", [&] { inner_.Yield(); }); }

  void Compute(exo::sim::Cycles cycles) override {
    Call(b_->compute, "compute", [&] { inner_.Compute(cycles); });
  }
  void TouchData(uint64_t bytes) override {
    Call(b_->compute, "touchdata", [&] { inner_.TouchData(bytes); });
  }
  exo::sim::Cycles Now() const override {
    return Call(b_->compute, "now", [&] { return inner_.Now(); });
  }

 private:
  exo::os::UnixEnv& inner_;
  EnvBuckets* b_;
  std::string program_;
  int app_;
  uint64_t span_;
  uint32_t tid_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_ENV_H_
