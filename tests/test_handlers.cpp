#include "funcs/handlers.hpp"

#include <gtest/gtest.h>

#include <span>

#include "criu/crc32.hpp"

namespace prebake::funcs {
namespace {

TEST(NoopHandler, AcksEveryRequest) {
  NoopHandler h;
  const Response res = h.handle(Request{});
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.body, "OK");
}

TEST(MarkdownHandler, RendersBody) {
  MarkdownHandler h;
  Request req;
  req.body = "# Hi\n\ntext";
  const Response res = h.handle(req);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.headers.at("Content-Type"), "text/html");
  EXPECT_NE(res.body.find("<h1>Hi</h1>"), std::string::npos);
}

TEST(MarkdownHandler, RejectsEmptyBody) {
  MarkdownHandler h;
  const Response res = h.handle(Request{});
  EXPECT_EQ(res.status, 400);
}

TEST(ImageResizer, ScalesToTenPercent) {
  SharedAssets assets;
  ImageResizerHandler h{assets.image(200, 100, 1), 0.10};
  const Response res = h.handle(Request{});
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.headers.at("X-Original-Size"), "200x100");
  EXPECT_EQ(res.headers.at("X-Scaled-Size"), "20x10");
  // Body is a decodable PPM of the scaled size.
  const Image out = decode_ppm(res.body);
  EXPECT_EQ(out.width, 20u);
  EXPECT_EQ(out.height, 10u);
}

TEST(ImageResizer, RejectsBadConstruction) {
  SharedAssets assets;
  EXPECT_THROW(ImageResizerHandler(nullptr, 0.1), std::invalid_argument);
  EXPECT_THROW(ImageResizerHandler(assets.image(8, 8, 1), 0.0),
               std::invalid_argument);
}

TEST(SyntheticHandler, EchoesConfiguration) {
  SyntheticHandler h{374};
  Request req;
  req.body = "xyz";
  const Response res = h.handle(req);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.body, "classes=374;echo=3");
}

TEST(SharedAssets, CachesImages) {
  SharedAssets assets;
  const auto a = assets.image(32, 32, 5);
  const auto b = assets.image(32, 32, 5);
  EXPECT_EQ(a.get(), b.get());
  const auto c = assets.image(32, 32, 6);
  EXPECT_NE(a.get(), c.get());
}

TEST(MakeHandler, ResolvesAllIds) {
  SharedAssets assets;
  EXPECT_NE(make_handler("noop", assets), nullptr);
  EXPECT_NE(make_handler("markdown", assets), nullptr);
  EXPECT_NE(make_handler("synthetic:42", assets), nullptr);
}

TEST(MakeHandler, UnknownIdThrows) {
  SharedAssets assets;
  EXPECT_THROW(make_handler("bogus", assets), std::invalid_argument);
}

TEST(SampleRequest, MarkdownCarriesDocument) {
  const Request req = sample_request("markdown");
  EXPECT_GT(req.body.size(), 10'000u);
  EXPECT_NE(req.body.find("# OpenPiton"), std::string::npos);
}

TEST(SampleRequest, OthersAreEmptyBody) {
  EXPECT_TRUE(sample_request("noop").body.empty());
  EXPECT_TRUE(sample_request("synthetic:374").body.empty());
}

// Each paper function's response to its sample request, pinned by size and
// CRC-32: a change to a handler's kernels must keep every response byte.
TEST(PaperHandlers, ResponsesMatchGoldenBytes) {
  struct Golden {
    const char* id;
    std::size_t size;
    std::uint32_t crc;
  };
  const Golden goldens[] = {
      {"noop", 2, 0xD736D92D},
      {"markdown", 33'370, 0x28F815C1},
      {"image-resizer", 148'623, 0x85B249CC},
  };
  SharedAssets assets;
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.id);
    const Response res =
        make_handler(g.id, assets)->handle(sample_request(g.id));
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.body.size(), g.size);
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(res.body.data());
    EXPECT_EQ(criu::crc32(std::span{bytes, res.body.size()}), g.crc);
  }
}

TEST(MakeHandler, SyntheticRoundTripsThroughRegistry) {
  SharedAssets assets;
  auto h = make_handler("synthetic:1574", assets);
  const Response res = h->handle(sample_request("synthetic:1574"));
  EXPECT_EQ(res.body, "classes=1574;echo=0");
}

}  // namespace
}  // namespace prebake::funcs
