#include "objectmodel/value.h"

#include <gtest/gtest.h>

namespace idba {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t(7)).AsInt(), 7);
  EXPECT_EQ(Value(7).type(), ValueType::kInt);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_TRUE(Value(true).AsBool());
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_EQ(Value(Oid(9)).AsOid(), Oid(9));
  std::vector<Oid> list = {Oid(1), Oid(2)};
  EXPECT_EQ(Value(list).AsOidList().size(), 2u);
}

TEST(ValueTest, AsNumberWidens) {
  EXPECT_DOUBLE_EQ(Value(3).AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(Value(2.5).AsNumber(), 2.5);
  EXPECT_DOUBLE_EQ(Value(true).AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(Value("x").AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(Value().AsNumber(), 0.0);
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(3), Value(3));
  EXPECT_NE(Value(3), Value(4));
  EXPECT_NE(Value(3), Value(3.0));  // different types
  EXPECT_EQ(Value("a"), Value(std::string("a")));
}

void ExpectRoundTrip(const Value& in) {
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  in.EncodeTo(&enc);
  Decoder dec(buf);
  Value out;
  ASSERT_TRUE(Value::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out, in);
  EXPECT_TRUE(dec.exhausted());
}

// gtest names each case after its parameter, and a Value prints as its
// raw bytes. The leading bytes of these values, which a truncated test
// listing shows, are the same on every run.
class ValueRoundTrip : public ::testing::TestWithParam<Value> {};

TEST_P(ValueRoundTrip, EncodeDecode) { ExpectRoundTrip(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ValueRoundTrip,
    ::testing::Values(Value(int64_t(-5)), Value(int64_t(1) << 40), Value(0.0),
                      Value(-123.456), Value(Oid(0)), Value(Oid(~0ULL)),
                      Value(std::vector<Oid>{})));

// The bytes of these values hold heap pointers or uninitialised padding,
// which would give the case a different name on every run, so each one
// carries a fixed name.
struct NamedValue {
  const char* name;
  Value value;
};

void PrintTo(const NamedValue& p, std::ostream* os) { *os << p.name; }

class NamedValueRoundTrip : public ::testing::TestWithParam<NamedValue> {};

TEST_P(NamedValueRoundTrip, EncodeDecode) { ExpectRoundTrip(GetParam().value); }

INSTANTIATE_TEST_SUITE_P(
    NamedTypes, NamedValueRoundTrip,
    ::testing::Values(
        NamedValue{"Null", Value()}, NamedValue{"True", Value(true)},
        NamedValue{"False", Value(false)},
        NamedValue{"EmptyString", Value("")},
        NamedValue{"ShortString", Value("utilization")},
        NamedValue{"LongString", Value(std::string(300, 'z'))},
        NamedValue{"OidList",
                   Value(std::vector<Oid>{Oid(1), Oid(99), Oid(12345)})}));

TEST(ValueTest, WireBytesMatchesEncodedSizeClosely) {
  for (const Value& v :
       {Value(), Value(42), Value(2.5), Value("some string"), Value(Oid(7)),
        Value(std::vector<Oid>{Oid(1), Oid(2), Oid(3)})}) {
    std::vector<uint8_t> buf;
    Encoder enc(&buf);
    v.EncodeTo(&enc);
    // WireBytes is an upper-bound estimate (varint headroom).
    EXPECT_GE(v.WireBytes(), buf.size());
    EXPECT_LE(v.WireBytes(), buf.size() + 8);
  }
}

TEST(ValueTest, MemoryBytesGrowsWithContent) {
  EXPECT_GT(Value(std::string(1000, 'a')).MemoryBytes(),
            Value("short").MemoryBytes());
  EXPECT_GT(Value(std::vector<Oid>(100)).MemoryBytes(),
            Value(std::vector<Oid>(1)).MemoryBytes());
}

TEST(ValueTest, DecodeRejectsUnknownTag) {
  std::vector<uint8_t> buf = {0x77};
  Decoder dec(buf);
  Value out;
  EXPECT_EQ(Value::DecodeFrom(&dec, &out).code(), StatusCode::kCorruption);
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(5).ToString(), "5");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value("x").ToString(), "\"x\"");
  EXPECT_EQ(Value(std::vector<Oid>{Oid(1), Oid(2)}).ToString(), "[1,2]");
}

TEST(ValueTest, TypeNames) {
  EXPECT_EQ(ValueTypeName(ValueType::kInt), "int");
  EXPECT_EQ(ValueTypeName(ValueType::kOidList), "oid_list");
}

}  // namespace
}  // namespace idba
