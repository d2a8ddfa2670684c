#include "perfbench/src/repl.h"

#include <iostream>
#include <istream>
#include <ostream>
#include <streambuf>

#include "perfbench/src/harness.h"

namespace perfbench {

namespace {

// The REPL's input: hands out the next script line only when RunServe
// asks for more input.
class ScriptInput : public std::streambuf {
 public:
  explicit ScriptInput(const std::vector<std::string>& lines) : lines_(lines) {}
  const std::vector<double>& handed() const { return handed_; }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ >= lines_.size()) return traits_type::eof();
    current_ = lines_[next_++] + '\n';
    handed_.push_back(Now());
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  const std::vector<std::string>& lines_;
  std::size_t next_ = 0;
  std::string current_;
  std::vector<double> handed_;
};

// The REPL's output: unbuffered, so every reply's final newline is
// time-stamped as it is written.
class ReplyOutput : public std::streambuf {
 public:
  const std::vector<double>& written() const { return written_; }
  const std::vector<std::string>& replies() const { return replies_; }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) {
      return traits_type::not_eof(c);
    }
    if (traits_type::to_char_type(c) == '\n') {
      written_.push_back(Now());
      replies_.push_back(std::move(partial_));
      partial_.clear();
    } else {
      partial_.push_back(traits_type::to_char_type(c));
    }
    return c;
  }

 private:
  std::string partial_;
  std::vector<double> written_;
  std::vector<std::string> replies_;
};

}  // namespace

Session Serve(const linbp::cli::ServeOptions& options,
              const std::vector<std::string>& script, double setup_start) {
  ScriptInput input(script);
  ReplyOutput output;
  std::istream in(&input);
  std::ostream out(&output);
  Session session;
  std::string error;
  session.exit_code = linbp::cli::RunServe(options, in, out, &error);
  if (session.exit_code != 0) std::cerr << "serve: " << error << '\n';
  session.handed = input.handed();
  session.written = output.written();
  session.replies = output.replies();
  if (!session.written.empty()) {
    session.setup_seconds = session.written.front() - setup_start;
  }
  return session;
}

}  // namespace perfbench
