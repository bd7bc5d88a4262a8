#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace idf {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad address " + host);
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return Errno("connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Client>(new Client(fd));
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

Status Client::SendFrame(Op op, const std::string& payload) {
  return SendAll(EncodeFrame(op, payload));
}

Status Client::SendAll(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a server that went away is an error, not SIGPIPE.
    const ssize_t n =
        send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<Frame> Client::ReadFrame() {
  Frame frame;
  while (!decoder_.Next(&frame)) {
    char buf[64 * 1024];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n == 0) return Status::Internal("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    IDF_RETURN_NOT_OK(decoder_.Feed(buf, static_cast<size_t>(n)));
  }
  return frame;
}

Result<Frame> Client::ReadReply(Op expected) {
  IDF_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.op == Op::kError || frame.op == Op::kBusy) {
    return DecodeError(frame.payload, frame.op);
  }
  if (frame.op != expected) {
    return Status::Internal("unexpected reply opcode " +
                            std::to_string(static_cast<unsigned>(frame.op)));
  }
  return frame;
}

Result<PreparedReply> Client::Prepare(const std::string& sql) {
  std::string payload;
  WireWriter w(&payload);
  w.PutString(sql);
  IDF_RETURN_NOT_OK(SendFrame(Op::kPrepare, payload));
  IDF_ASSIGN_OR_RETURN(Frame frame, ReadReply(Op::kOkPrepared));
  return DecodeOkPrepared(frame.payload);
}

Result<RowsReply> Client::Execute(uint64_t handle,
                                  const std::vector<Value>& params) {
  IDF_RETURN_NOT_OK(SendFrame(Op::kExecute, EncodeExecute(handle, params)));
  IDF_ASSIGN_OR_RETURN(Frame frame, ReadReply(Op::kOkRows));
  return DecodeOkRows(frame.payload);
}

Result<std::vector<RowsReply>> Client::ExecutePipelined(
    uint64_t handle, const std::vector<std::vector<Value>>& param_sets,
    int busy_retries) {
  std::vector<RowsReply> replies(param_sets.size());
  // Indices still awaiting a successful reply; BUSY rounds retry the
  // remainder, keeping replies aligned with param_sets.
  std::vector<size_t> todo(param_sets.size());
  for (size_t i = 0; i < todo.size(); ++i) todo[i] = i;
  for (int attempt = 0; attempt <= busy_retries && !todo.empty(); ++attempt) {
    // Write the whole burst as one buffer before reading: one syscall for
    // N requests, and replies stream back in order.
    std::string burst;
    for (size_t i : todo) {
      burst += EncodeFrame(Op::kExecute, EncodeExecute(handle, param_sets[i]));
    }
    IDF_RETURN_NOT_OK(SendAll(burst));
    std::vector<size_t> busy;
    for (size_t i : todo) {
      IDF_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
      if (frame.op == Op::kBusy) {
        busy.push_back(i);
        continue;
      }
      if (frame.op == Op::kError) {
        return DecodeError(frame.payload, frame.op);
      }
      if (frame.op != Op::kOkRows) {
        return Status::Internal(
            "unexpected reply opcode " +
            std::to_string(static_cast<unsigned>(frame.op)));
      }
      IDF_ASSIGN_OR_RETURN(replies[i], DecodeOkRows(frame.payload));
    }
    todo.swap(busy);
  }
  if (!todo.empty()) {
    return Status::CapacityError(std::to_string(todo.size()) +
                                 " request(s) still BUSY after " +
                                 std::to_string(busy_retries) + " retries");
  }
  return replies;
}

Result<RowsReply> Client::Query(const std::string& sql) {
  std::string payload;
  WireWriter w(&payload);
  w.PutString(sql);
  IDF_RETURN_NOT_OK(SendFrame(Op::kQuery, payload));
  IDF_ASSIGN_OR_RETURN(Frame frame, ReadReply(Op::kOkRows));
  return DecodeOkRows(frame.payload);
}

Status Client::Close(uint64_t handle) {
  std::string payload;
  WireWriter w(&payload);
  w.PutU64(handle);
  IDF_RETURN_NOT_OK(SendFrame(Op::kClose, payload));
  return ReadReply(Op::kOkRows).status();
}

Result<std::string> Client::Stats() {
  IDF_RETURN_NOT_OK(SendFrame(Op::kStats, ""));
  IDF_ASSIGN_OR_RETURN(Frame frame, ReadReply(Op::kStatsJson));
  WireReader r(frame.payload);
  IDF_ASSIGN_OR_RETURN(std::string json, r.String());
  IDF_RETURN_NOT_OK(r.ExpectEnd());
  return json;
}

}  // namespace net
}  // namespace idf
