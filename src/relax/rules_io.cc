#include "relax/rules_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "util/crc32.h"
#include "util/string_util.h"

namespace specqp {

namespace {

constexpr char kMagic[8] = {'S', 'Q', 'P', 'R', 'U', 'L', 'E', '1'};
constexpr uint32_t kFormatVersion = 1;

void AppendU32(std::string* buf, uint32_t v) {
  char tmp[4];
  std::memcpy(tmp, &v, 4);
  buf->append(tmp, 4);
}

void AppendU64(std::string* buf, uint64_t v) {
  char tmp[8];
  std::memcpy(tmp, &v, 8);
  buf->append(tmp, 8);
}

void AppendF64(std::string* buf, double v) {
  char tmp[8];
  std::memcpy(tmp, &v, 8);
  buf->append(tmp, 8);
}

}  // namespace

Status SaveRules(const RelaxationIndex& rules, const std::string& path) {
  std::string payload;
  const std::vector<RelaxationRule> all = rules.AllRules();
  AppendU64(&payload, all.size());
  for (const RelaxationRule& rule : all) {
    AppendU32(&payload, rule.from.s);
    AppendU32(&payload, rule.from.p);
    AppendU32(&payload, rule.from.o);
    AppendU32(&payload, rule.to.s);
    AppendU32(&payload, rule.to.p);
    AppendU32(&payload, rule.to.o);
    AppendF64(&payload, rule.weight);
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError(
        StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  out.write(kMagic, sizeof(kMagic));
  const uint32_t version = kFormatVersion;
  out.write(reinterpret_cast<const char*>(&version), 4);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  out.write(reinterpret_cast<const char*>(&crc), 4);
  out.flush();
  if (!out) {
    return Status::IoError(StrFormat("short write to '%s'", path.c_str()));
  }
  return Status::Ok();
}

Result<RelaxationIndex> LoadRules(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::IoError(StrFormat("cannot open '%s'", path.c_str()));
  }
  const std::streamsize file_size = in.tellg();
  in.seekg(0);
  std::string blob(static_cast<size_t>(file_size), '\0');
  in.read(blob.data(), file_size);
  if (!in) {
    return Status::IoError(StrFormat("short read from '%s'", path.c_str()));
  }

  constexpr size_t kHeader = 8 + 4;
  if (blob.size() < kHeader + 8 + 4) {
    return Status::Corruption("rule file too small");
  }
  if (std::memcmp(blob.data(), kMagic, 8) != 0) {
    return Status::Corruption("bad magic; not a Spec-QP rule file");
  }
  uint32_t version = 0;
  std::memcpy(&version, blob.data() + 8, 4);
  if (version != kFormatVersion) {
    return Status::Corruption(StrFormat("unsupported version %u", version));
  }

  const char* payload = blob.data() + kHeader;
  const size_t payload_size = blob.size() - kHeader - 4;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, blob.data() + blob.size() - 4, 4);
  if (Crc32c(payload, payload_size) != stored_crc) {
    return Status::Corruption("rule payload CRC mismatch");
  }

  uint64_t count = 0;
  std::memcpy(&count, payload, 8);
  constexpr size_t kRuleBytes = 6 * 4 + 8;
  // Bound the count before multiplying: count * kRuleBytes wraps for
  // counts of 2^59 and more.
  if (count > (payload_size - 8) / kRuleBytes ||
      payload_size != 8 + count * kRuleBytes) {
    return Status::Corruption("rule count does not match payload size");
  }

  RelaxationIndex index;
  const char* cursor = payload + 8;
  for (uint64_t i = 0; i < count; ++i) {
    RelaxationRule rule;
    uint32_t fields[6];
    std::memcpy(fields, cursor, sizeof(fields));
    cursor += sizeof(fields);
    std::memcpy(&rule.weight, cursor, 8);
    cursor += 8;
    rule.from = PatternKey{fields[0], fields[1], fields[2]};
    rule.to = PatternKey{fields[3], fields[4], fields[5]};
    const Status added = index.AddRule(rule);
    if (!added.ok()) {
      return Status::Corruption(
          StrFormat("rule %llu invalid: %s",
                    static_cast<unsigned long long>(i),
                    added.ToString().c_str()));
    }
  }
  return index;
}

}  // namespace specqp
