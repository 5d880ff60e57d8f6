#include "funcs/handlers.hpp"

#include <stdexcept>

#include "funcs/markdown.hpp"

namespace prebake::funcs {

Response NoopHandler::handle(const Request&) {
  Response res;
  res.status = 200;
  res.body = "OK";
  return res;
}

Response MarkdownHandler::handle(const Request& req) {
  Response res;
  if (req.body.empty()) {
    res.status = 400;
    res.body = "empty markdown body";
    return res;
  }
  res.status = 200;
  res.headers["Content-Type"] = "text/html";
  res.body = render_markdown(req.body);
  return res;
}

ImageResizerHandler::ImageResizerHandler(
    std::shared_ptr<const LazyImage> source, double scale)
    : source_{std::move(source)}, scale_{scale} {
  if (!source_ || source_->width() == 0 || source_->height() == 0)
    throw std::invalid_argument{"ImageResizerHandler: invalid source image"};
  if (scale_ <= 0.0 || scale_ > 1.0)
    throw std::invalid_argument{"ImageResizerHandler: scale must be in (0, 1]"};
}

Response ImageResizerHandler::handle(const Request&) {
  const Image& src = source_->get();
  const Image scaled = resize_box(src, scale_);
  Response res;
  res.status = 200;
  res.headers["Content-Type"] = "image/x-portable-pixmap";
  res.headers["X-Original-Size"] =
      std::to_string(src.width) + "x" + std::to_string(src.height);
  res.headers["X-Scaled-Size"] =
      std::to_string(scaled.width) + "x" + std::to_string(scaled.height);
  res.body = encode_ppm(scaled);
  return res;
}

Response SyntheticHandler::handle(const Request& req) {
  Response res;
  res.status = 200;
  res.body = "classes=" + std::to_string(class_count_) +
             ";echo=" + std::to_string(req.body.size());
  return res;
}

std::shared_ptr<const LazyImage> SharedAssets::image(std::uint32_t width,
                                                     std::uint32_t height,
                                                     std::uint64_t seed) {
  const auto key = std::make_tuple(width, height, seed);
  const std::lock_guard lock{mu_};
  auto it = images_.find(key);
  if (it == images_.end()) {
    it = images_
             .emplace(key, std::make_shared<const LazyImage>(width, height,
                                                             seed))
             .first;
  }
  return it->second;
}

Request sample_request(const std::string& handler_id) {
  Request req;
  req.method = "POST";
  req.path = "/invoke";
  if (handler_id == "markdown") {
    // Stand-in for the OpenPiton README the paper embeds in each request.
    req.headers["Content-Type"] = "text/markdown";
    std::string doc =
        "# OpenPiton Research Platform\n"
        "\n"
        "OpenPiton is the **world's first** open source, general-purpose, "
        "multithreaded manycore processor and framework.\n"
        "\n"
        "## Features\n"
        "\n"
        "- Scales up to *500 million* cores\n"
        "- Based on the industry-hardened OpenSPARC T1 core\n"
        "- Supports [Debian Linux](https://www.debian.org)\n"
        "\n"
        "## Building\n"
        "\n"
        "```bash\n"
        "source piton/piton_settings.bash\n"
        "sims -sys=manycore -vcs_build\n"
        "```\n"
        "\n"
        "> Documentation and tutorials are available on the project site.\n"
        "\n"
        "1. Clone the repository\n"
        "2. Configure the environment\n"
        "3. Run the simulations\n"
        "\n"
        "---\n"
        "\n";
    // Pad to a README-like size with repeated sections.
    std::string body;
    while (body.size() < 24 * 1024) body += doc;
    req.body = std::move(body);
  }
  return req;
}

std::unique_ptr<Handler> make_handler(const std::string& id,
                                      SharedAssets& assets) {
  if (id == "noop") return std::make_unique<NoopHandler>();
  if (id == "markdown") return std::make_unique<MarkdownHandler>();
  if (id == "image-resizer") {
    // The paper's source: 3440x1440 (1 MiB JPEG, ~19 MiB decoded); scaled to
    // 10% per request. Seed fixed so every replica sees identical pixels.
    return std::make_unique<ImageResizerHandler>(
        assets.image(3440, 1440, 0x1113440), 0.10);
  }
  if (id.rfind("synthetic:", 0) == 0) {
    const int classes = std::stoi(id.substr(10));
    return std::make_unique<SyntheticHandler>(classes);
  }
  throw std::invalid_argument{"make_handler: unknown handler id: " + id};
}

}  // namespace prebake::funcs
