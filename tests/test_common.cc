#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "common/result.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/value.h"

namespace prometheus {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kNotFound);
  EXPECT_EQ(st.message(), "missing thing");
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EveryCodeHasAName) {
  EXPECT_STREQ(StatusCodeName(Status::Code::kConstraintViolation),
               "ConstraintViolation");
  EXPECT_STREQ(StatusCodeName(Status::Code::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeName(Status::Code::kAborted), "Aborted");
  EXPECT_STREQ(StatusCodeName(Status::Code::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(Status::Code::kTypeError), "TypeError");
  EXPECT_STREQ(StatusCodeName(Status::Code::kFailedPrecondition),
               "FailedPrecondition");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  PROMETHEUS_ASSIGN_OR_RETURN(int half, HalfOf(x));
  *out = half;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  Status st = UseAssignOrReturn(7, &out);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_EQ(Value::Ref(99).AsRef(), 99u);
  Value list = Value::MakeList({Value::Int(1), Value::Int(2)});
  EXPECT_EQ(list.AsList().size(), 2u);
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value::Int(1).Equals(Value::Double(1.0)));
  EXPECT_FALSE(Value::Int(1).Equals(Value::Double(1.5)));
  EXPECT_FALSE(Value::Int(1).Equals(Value::String("1")));
  EXPECT_TRUE(Value::Null().Equals(Value::Null()));
  EXPECT_FALSE(Value::Null().Equals(Value::Int(0)));
}

TEST(ValueTest, RefDistinctFromInt) {
  EXPECT_FALSE(Value::Ref(1).Equals(Value::Int(1)));
  EXPECT_NE(Value::Ref(1).IndexKey(), Value::Int(1).IndexKey());
}

TEST(ValueTest, ListEquality) {
  Value a = Value::MakeList({Value::Int(1), Value::String("x")});
  Value b = Value::MakeList({Value::Int(1), Value::String("x")});
  Value c = Value::MakeList({Value::Int(1)});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
}

TEST(ValueTest, StructAccessorsAndFieldLookup) {
  Value v = Value::MakeStruct(
      {{"name", Value::String("Apium")}, {"rows", Value::Int(4)}});
  ASSERT_EQ(v.type(), ValueType::kStruct);
  ASSERT_EQ(v.AsStruct().size(), 2u);
  EXPECT_TRUE(v.HasField("name"));
  EXPECT_FALSE(v.HasField("nope"));
  ASSERT_NE(v.Field("rows"), nullptr);
  EXPECT_EQ(v.Field("rows")->AsInt(), 4);
  EXPECT_EQ(v.Field("nope"), nullptr);
}

TEST(ValueTest, StructEqualityIsOrderSensitive) {
  Value a = Value::MakeStruct({{"x", Value::Int(1)}, {"y", Value::Int(2)}});
  Value b = Value::MakeStruct({{"x", Value::Int(1)}, {"y", Value::Int(2)}});
  Value swapped =
      Value::MakeStruct({{"y", Value::Int(2)}, {"x", Value::Int(1)}});
  Value renamed =
      Value::MakeStruct({{"x", Value::Int(1)}, {"z", Value::Int(2)}});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(swapped));  // field order is part of the identity
  EXPECT_FALSE(a.Equals(renamed));
  EXPECT_FALSE(a.Equals(Value::MakeStruct({{"x", Value::Int(1)}})));
}

TEST(ValueTest, StructToStringRendersFields) {
  Value v = Value::MakeStruct(
      {{"name", Value::String("a")},
       {"tags", Value::MakeList({Value::Int(1), Value::Int(2)})}});
  EXPECT_EQ(v.ToString(), "{name: \"a\", tags: [1, 2]}");
  EXPECT_EQ(Value::MakeStruct({}).ToString(), "{}");
}

TEST(ValueTest, StructIndexKeyDistinguishesNamesAndValues) {
  Value a = Value::MakeStruct({{"x", Value::Int(1)}});
  Value b = Value::MakeStruct({{"y", Value::Int(1)}});
  Value c = Value::MakeStruct({{"x", Value::Int(2)}});
  EXPECT_EQ(a.IndexKey(), Value::MakeStruct({{"x", Value::Int(1)}}).IndexKey());
  EXPECT_NE(a.IndexKey(), b.IndexKey());
  EXPECT_NE(a.IndexKey(), c.IndexKey());
}

TEST(ValueTest, Compare) {
  EXPECT_EQ(Value::Int(1).Compare(Value::Int(2)).value(), -1);
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)).value(), 0);
  EXPECT_EQ(Value::String("b").Compare(Value::String("a")).value(), 1);
  EXPECT_FALSE(Value::Int(1).Compare(Value::String("a")).ok());
  EXPECT_FALSE(Value::Null().Compare(Value::Null()).ok());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int(3).ToString(), "3");
  EXPECT_EQ(Value::String("a").ToString(), "\"a\"");
  EXPECT_EQ(Value::Ref(5).ToString(), "@5");
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::MakeList({Value::Int(1), Value::Int(2)}).ToString(),
            "[1, 2]");
}

TEST(ValueTest, DoublesRenderInTheStreamsDefaultFormat) {
  for (const double d : {0.0, -0.0, 1.5, 1990.0, 1e-7, 123456789.0, 1.0 / 3,
                         -2.5e300, std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    std::ostringstream os;
    os << d;
    EXPECT_EQ(Value::Double(d).ToString(), os.str());
  }
  EXPECT_EQ(Value::Double(std::numeric_limits<double>::quiet_NaN()).ToString(),
            "nan");
}

TEST(ValueTest, AppendTextAppendsTheToStringText) {
  const Value v = Value::MakeStruct(
      {{"b", Value::Bool(true)},
       {"l", Value::MakeList({Value::Double(0.5), Value::Ref(9),
                              Value::Null(), Value::String("x")})},
       {"i", Value::Int(-42)}});
  std::string out = "prefix ";
  v.AppendText(&out);
  EXPECT_EQ(out, "prefix " + v.ToString());
  EXPECT_EQ(v.ToString(), "{b: true, l: [0.5, @9, null, \"x\"], i: -42}");
}

TEST(ValueTest, IndexKeyCollapsesEqualNumerics) {
  EXPECT_EQ(Value::Int(4).IndexKey(), Value::Double(4.0).IndexKey());
  EXPECT_NE(Value::Int(4).IndexKey(), Value::Double(4.5).IndexKey());
  EXPECT_NE(Value::String("4").IndexKey(), Value::Int(4).IndexKey());
}

class ValueRoundTrip : public ::testing::TestWithParam<Value> {};

TEST_P(ValueRoundTrip, EqualsItselfAndKeysAreStable) {
  const Value& v = GetParam();
  EXPECT_TRUE(v.Equals(v));
  EXPECT_EQ(v.IndexKey(), v.IndexKey());
  EXPECT_EQ(v.ToString(), v.ToString());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ValueRoundTrip,
    ::testing::Values(Value::Null(), Value::Bool(false), Value::Int(-3),
                      Value::Double(3.25), Value::String(""),
                      Value::String("taxon"), Value::Ref(17),
                      Value::MakeList({Value::Int(1), Value::Null()}),
                      Value::MakeStruct({{"k", Value::String("v")},
                                         {"n", Value::Int(9)}})));

TEST(JsonWriterTest, EscapesEveryControlByteAndKeepsUtf8) {
  std::string raw;
  for (char c = 0; c < 0x20; ++c) raw += c;
  stats::JsonWriter w;
  w.String(raw + "\"\\caf\xC3\xA9");
  std::string want = "\"";
  const char* hex = "0123456789abcdef";
  for (int c = 0; c < 0x20; ++c) {
    if (c == '\n') {
      want += "\\n";
    } else if (c == '\r') {
      want += "\\r";
    } else if (c == '\t') {
      want += "\\t";
    } else {
      want += std::string("\\u00") + hex[c >> 4] + hex[c & 0xF];
    }
  }
  want += "\\\"\\\\caf\xC3\xA9\"";
  EXPECT_EQ(w.str(), want);
}

}  // namespace
}  // namespace prometheus
