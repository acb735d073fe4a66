#include "common/value.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace prometheus {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
    case ValueType::kRef:
      return "ref";
    case ValueType::kList:
      return "list";
    case ValueType::kStruct:
      return "struct";
  }
  return "unknown";
}

ValueType Value::type() const {
  switch (data_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kBool;
    case 2:
      return ValueType::kInt;
    case 3:
      return ValueType::kDouble;
    case 4:
      return ValueType::kString;
    case 5:
      return ValueType::kRef;
    case 6:
      return ValueType::kList;
    case 7:
      return ValueType::kStruct;
  }
  return ValueType::kNull;
}

const Value* Value::Field(const std::string& name) const {
  if (type() != ValueType::kStruct) return nullptr;
  for (const auto& [key, value] : AsStruct()) {
    if (key == name) return &value;
  }
  return nullptr;
}

bool Value::HasField(const std::string& name) const {
  return Field(name) != nullptr;
}

Result<double> Value::ToNumeric() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kDouble:
      return AsDouble();
    default:
      return Status::TypeError(std::string("value of type ") +
                               ValueTypeName(type()) + " is not numeric");
  }
}

bool Value::Equals(const Value& other) const {
  ValueType a = type();
  ValueType b = other.type();
  // Numeric cross-type equality.
  if ((a == ValueType::kInt || a == ValueType::kDouble) &&
      (b == ValueType::kInt || b == ValueType::kDouble)) {
    if (a == ValueType::kInt && b == ValueType::kInt)
      return AsInt() == other.AsInt();
    return ToNumeric().value() == other.ToNumeric().value();
  }
  if (a != b) return false;
  switch (a) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return AsBool() == other.AsBool();
    case ValueType::kString:
      return AsString() == other.AsString();
    case ValueType::kRef:
      return AsRef() == other.AsRef();
    case ValueType::kList: {
      const List& x = AsList();
      const List& y = other.AsList();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (!x[i].Equals(y[i])) return false;
      }
      return true;
    }
    case ValueType::kStruct: {
      const Struct& x = AsStruct();
      const Struct& y = other.AsStruct();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (x[i].first != y[i].first) return false;
        if (!x[i].second.Equals(y[i].second)) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

Result<int> Value::Compare(const Value& other) const {
  ValueType a = type();
  ValueType b = other.type();
  if ((a == ValueType::kInt || a == ValueType::kDouble) &&
      (b == ValueType::kInt || b == ValueType::kDouble)) {
    double x = ToNumeric().value();
    double y = other.ToNumeric().value();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a != b) {
    return Status::TypeError(std::string("cannot compare ") +
                             ValueTypeName(a) + " with " + ValueTypeName(b));
  }
  switch (a) {
    case ValueType::kBool:
      return static_cast<int>(AsBool()) - static_cast<int>(other.AsBool());
    case ValueType::kString: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kRef:
      return AsRef() < other.AsRef() ? -1 : (AsRef() > other.AsRef() ? 1 : 0);
    default:
      return Status::TypeError(std::string("values of type ") +
                               ValueTypeName(a) + " are not ordered");
  }
}

std::string Value::ToString() const {
  std::string out;
  AppendText(&out);
  return out;
}

void Value::AppendText(std::string* out) const {
  char buf[32];
  switch (type()) {
    case ValueType::kNull:
      *out += "null";
      return;
    case ValueType::kBool:
      *out += AsBool() ? "true" : "false";
      return;
    case ValueType::kInt:
      out->append(buf, std::to_chars(buf, buf + sizeof buf, AsInt()).ptr);
      return;
    case ValueType::kDouble:
      // `%g` is the default stream format of a double: six significant
      // digits, `inf`/`nan` spelled out.
      out->append(buf, static_cast<std::size_t>(
                           std::snprintf(buf, sizeof buf, "%g", AsDouble())));
      return;
    case ValueType::kString:
      *out += '"';
      *out += AsString();
      *out += '"';
      return;
    case ValueType::kRef:
      *out += '@';
      out->append(buf, std::to_chars(buf, buf + sizeof buf, AsRef()).ptr);
      return;
    case ValueType::kList: {
      *out += '[';
      const List& items = AsList();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) *out += ", ";
        items[i].AppendText(out);
      }
      *out += ']';
      return;
    }
    case ValueType::kStruct: {
      *out += '{';
      const Struct& fields = AsStruct();
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i != 0) *out += ", ";
        *out += fields[i].first;
        *out += ": ";
        fields[i].second.AppendText(out);
      }
      *out += '}';
      return;
    }
  }
  *out += '?';
}

std::string Value::IndexKey() const {
  switch (type()) {
    case ValueType::kNull:
      return "n";
    case ValueType::kBool:
      return AsBool() ? "b1" : "b0";
    case ValueType::kInt:
    case ValueType::kDouble: {
      // Numerically equal ints and doubles must share a key.
      double d = ToNumeric().value();
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        return "i" + std::to_string(static_cast<std::int64_t>(d));
      }
      std::ostringstream os;
      os << "d" << d;
      return os.str();
    }
    case ValueType::kString:
      return "s" + AsString();
    case ValueType::kRef:
      return "r" + std::to_string(AsRef());
    case ValueType::kList: {
      std::string out = "l";
      for (const Value& v : AsList()) {
        std::string k = v.IndexKey();
        out += std::to_string(k.size());
        out += ":";
        out += k;
      }
      return out;
    }
    case ValueType::kStruct: {
      std::string out = "t";
      for (const auto& [name, v] : AsStruct()) {
        std::string k = v.IndexKey();
        out += std::to_string(name.size());
        out += ":";
        out += name;
        out += std::to_string(k.size());
        out += ":";
        out += k;
      }
      return out;
    }
  }
  return "?";
}

}  // namespace prometheus
