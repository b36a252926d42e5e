#include "core/request_options.hpp"

#include <type_traits>

namespace iotsan::core {

namespace {

/// A row whose setter and getter write and read one RequestOptions field.
template <auto Field>
constexpr RequestOptionSpec FieldRow(const char* json_key, const char* flag,
                                     long long min, long long max,
                                     Forward forward = Forward::kWhenSet) {
  using T = std::remove_reference_t<decltype(RequestOptions{}.*Field)>;
  return {json_key, flag, min, max, forward,
          [](RequestOptions& o, long long v) { o.*Field = static_cast<T>(v); },
          [](const RequestOptions& o) {
            return static_cast<long long>(o.*Field);
          }};
}

template <auto Field>
constexpr RequestOptionSpec Switch(const char* json_key, const char* flag,
                                   Forward forward = Forward::kWhenSet) {
  return FieldRow<Field>(json_key, flag, 0, 0, forward);
}

constexpr RequestOptionSpec kRequestOptionTable[] = {
    FieldRow<&RequestOptions::events>("events", "--events", 1, 64),
    FieldRow<&RequestOptions::jobs>("jobs", "--jobs", 0, 1024,
                                    Forward::kPoolSize),
    Switch<&RequestOptions::failures>("failures", "--failures"),
    Switch<&RequestOptions::mono>("mono", "--mono", Forward::kNever),
    Switch<&RequestOptions::bitstate>("bitstate", "--bitstate"),
    // A bit-field size selects the bitstate store.
    {"bitstateBits", "--bitstate-bits", 10, 40, Forward::kWhenSet,
     [](RequestOptions& o, long long v) {
       o.bitstate_bits_pow = static_cast<int>(v);
       o.bitstate = true;
     },
     [](const RequestOptions& o) -> long long { return o.bitstate_bits_pow; }},
    Switch<&RequestOptions::state_compression>("stateCompression",
                                               "--state-compression"),
    Switch<&RequestOptions::first>("first", "--first"),
    Switch<&RequestOptions::reverify_bitstate>("reverifyBitstate",
                                               "--reverify-bitstate"),
    Switch<&RequestOptions::allow_discovery>("allowDiscovery",
                                             "--allow-discovery"),
    FieldRow<&RequestOptions::deadline_seconds>(
        "deadlineSeconds", "--deadline", 0, 86400, Forward::kAlways),
};

}  // namespace

std::span<const RequestOptionSpec> RequestOptionTable() {
  return kRequestOptionTable;
}

const RequestOptionSpec* FindRequestOption(std::string_view json_key) {
  for (const RequestOptionSpec& row : kRequestOptionTable) {
    if (json_key == row.json_key) return &row;
  }
  return nullptr;
}

const RequestOptionSpec* FindRequestOptionFlag(std::string_view flag) {
  for (const RequestOptionSpec& row : kRequestOptionTable) {
    if (flag == row.flag) return &row;
  }
  return nullptr;
}

}  // namespace iotsan::core
