#include "apps/echo.hpp"

namespace wam::apps {

void EchoServer::start() {
  if (running_) return;
  running_ = host_.open_udp(
      port_, [this](const net::Host::UdpContext& ctx,
                    const util::SharedBytes& request) {
        ++served_;
        // Reply format: length-prefixed hostname, then the request payload
        // echoed back (lets clients correlate replies with requests).
        util::ByteWriter w(4 + host_.name().size() + request.size());
        w.str(host_.name());
        w.raw(request);
        // Answer from the address the request hit (often a VIP).
        host_.send_udp_from(ctx.dst_ip, ctx.src_ip, ctx.src_port,
                            ctx.dst_port, w.data());
      });
}

void EchoServer::stop() {
  if (!running_) return;
  host_.close_udp(port_);
  running_ = false;
}

}  // namespace wam::apps
