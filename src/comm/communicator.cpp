#include "comm/communicator.hpp"

namespace wlsms::comm {

std::size_t Communicator::n_alive() const {
  std::size_t count = 0;
  for (std::size_t r = 0; r < n_ranks(); ++r)
    if (alive(r)) ++count;
  return count;
}

Transport parse_transport(const std::string& name) {
  if (name == "inprocess") return Transport::kInProcess;
  if (name == "tcp") return Transport::kTcp;
  throw CommError("unknown transport '" + name +
                  "' (expected 'inprocess' or 'tcp')");
}

const char* transport_name(Transport transport) {
  switch (transport) {
    case Transport::kInProcess: return "inprocess";
    case Transport::kTcp: return "tcp";
  }
  return "unknown";
}

}  // namespace wlsms::comm
