/**
 * @file
 * Tests for VectorUnitConfig validation and defaults.
 */

#include <gtest/gtest.h>

#include "core/config.h"
#include "test_util.h"

namespace cfva {
namespace {

TEST(Config, PaperMatchedExample)
{
    const auto cfg = paperMatchedExample();
    EXPECT_EQ(cfg.kind, MemoryKind::Matched);
    EXPECT_EQ(cfg.t, 3u);
    EXPECT_EQ(cfg.lambda, 7u);
    EXPECT_EQ(cfg.m(), 3u);
    EXPECT_EQ(cfg.s(), 4u); // the Sec. 3.3 choice
    EXPECT_EQ(cfg.registerLength(), 128u);
    EXPECT_EQ(cfg.serviceCycles(), 8u);
    EXPECT_TRUE(cfg.memConfig().matched());
}

TEST(Config, PaperSectionedExample)
{
    const auto cfg = paperSectionedExample();
    EXPECT_EQ(cfg.kind, MemoryKind::Sectioned);
    EXPECT_EQ(cfg.m(), 6u); // M = 64
    EXPECT_EQ(cfg.s(), 4u);
    EXPECT_EQ(cfg.y(), 9u); // the Sec. 4.3 choice
    EXPECT_FALSE(cfg.memConfig().matched());
}

TEST(Config, DescribeMentionsShape)
{
    const auto cfg = paperSectionedExample();
    const auto d = cfg.describe();
    EXPECT_NE(d.find("sectioned"), std::string::npos);
    EXPECT_NE(d.find("M=64"), std::string::npos);
    EXPECT_NE(d.find("L=128"), std::string::npos);
    EXPECT_NE(d.find("y=9"), std::string::npos);
}

TEST(Config, Overrides)
{
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::Matched;
    cfg.t = 2;
    cfg.lambda = 6;
    cfg.sOverride = 3;
    EXPECT_EQ(cfg.s(), 3u);
    cfg.validate();

    VectorUnitConfig un;
    un.kind = MemoryKind::SimpleUnmatched;
    un.t = 2;
    un.lambda = 8;
    un.mOverride = 4;
    un.sOverride = 6;
    un.validate();
    EXPECT_EQ(un.m(), 4u);
}

TEST(Config, RejectsMatchedWithWrongM)
{
    test::ScopedPanicThrow guard;
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::Matched;
    cfg.t = 3;
    cfg.lambda = 7;
    cfg.mOverride = 4;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(Config, RejectsSmallS)
{
    test::ScopedPanicThrow guard;
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::Matched;
    cfg.t = 3;
    cfg.lambda = 7;
    cfg.sOverride = 2; // < t
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(Config, RejectsLambdaBelowM)
{
    test::ScopedPanicThrow guard;
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::Sectioned;
    cfg.t = 3;
    cfg.lambda = 5; // < m = 6
    cfg.sOverride = 3;
    cfg.yOverride = 6;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(Config, RejectsSectionedBadY)
{
    test::ScopedPanicThrow guard;
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::Sectioned;
    cfg.t = 2;
    cfg.lambda = 6;
    cfg.sOverride = 3;
    cfg.yOverride = 4; // < s + t
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(Config, RejectsUnmatchedWithoutM)
{
    test::ScopedPanicThrow guard;
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::SimpleUnmatched;
    cfg.t = 2;
    cfg.lambda = 8;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(Config, DynamicTuneBoundDoesNotWrap)
{
    test::ScopedPanicThrow guard;
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::DynamicTuned;
    cfg.t = 2;
    cfg.lambda = 7;
    const unsigned mm = cfg.m();
    cfg.dynamicTune = 63 - mm; // module field ends at bit 63
    EXPECT_NO_THROW(cfg.validate());
    cfg.dynamicTune = 64 - mm;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    // p + m wraps to a small number in unsigned arithmetic; the
    // field would still start far past bit 63.
    for (unsigned wraps : {~0u, ~0u - mm + 1}) {
        cfg.dynamicTune = wraps;
        EXPECT_THROW(cfg.validate(), std::runtime_error) << wraps;
    }
}

TEST(Config, RejectsZeroBuffers)
{
    test::ScopedPanicThrow guard;
    VectorUnitConfig cfg = paperMatchedExample();
    cfg.inputBuffers = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(Config, MemoryKindNames)
{
    EXPECT_STREQ(to_string(MemoryKind::Matched), "matched");
    EXPECT_STREQ(to_string(MemoryKind::SimpleUnmatched),
                 "simple-unmatched");
    EXPECT_STREQ(to_string(MemoryKind::Sectioned), "sectioned");
}

} // namespace
} // namespace cfva
