#include "runtime/object.h"

#include "common/coding.h"

namespace lo::runtime {

Status TypeRegistry::Register(ObjectType type) {
  if (type.name.empty()) return Status::InvalidArgument("type name empty");
  for (const auto& [name, method] : type.methods) {
    bool has_native = static_cast<bool>(method.native);
    bool has_module = method.module != nullptr;
    if (has_native == has_module) {
      return Status::InvalidArgument("method " + name +
                                     ": exactly one of native/module required");
    }
    if (has_module && !method.module->FindExport(name).ok()) {
      return Status::InvalidArgument("method " + name +
                                     ": module does not export it");
    }
    if (method.deterministic && method.kind != MethodKind::kReadOnly) {
      return Status::InvalidArgument("method " + name +
                                     ": only read-only methods can be deterministic");
    }
  }
  auto [it, inserted] = types_.emplace(type.name, std::move(type));
  if (!inserted) return Status::InvalidArgument("duplicate type: " + it->first);
  return Status::OK();
}

const ObjectType* TypeRegistry::Find(std::string_view name) const {
  auto it = types_.find(name);
  return it == types_.end() ? nullptr : &it->second;
}

namespace {
constexpr char kSep = '\0';
}  // namespace

std::string ObjectExistsKey(std::string_view oid) {
  std::string key("o");
  key.push_back(kSep);
  key.append(oid);
  return key;
}

std::string FieldKey(std::string_view oid, std::string_view field) {
  std::string key("f");
  key.push_back(kSep);
  key.append(oid);
  key.push_back(kSep);
  key.append(field);
  return key;
}

std::string ListLenKey(std::string_view oid, std::string_view field) {
  std::string key = FieldKey(oid, field);
  key.push_back(kSep);
  key.append("len");
  return key;
}

std::string ListEntryKey(std::string_view oid, std::string_view field,
                         uint64_t index) {
  std::string key = FieldKey(oid, field);
  key.push_back(kSep);
  key.push_back('e');
  // Big-endian so lexicographic order == numeric order.
  for (int i = 7; i >= 0; i--) key.push_back(static_cast<char>((index >> (8 * i)) & 0xff));
  return key;
}

std::string MapEntryKey(std::string_view oid, std::string_view field,
                        std::string_view map_key) {
  std::string key = FieldKey(oid, field);
  key.push_back(kSep);
  key.push_back('m');
  key.append(map_key);
  return key;
}

std::string AppliedMarkerKey(std::string_view oid, std::string_view token,
                             uint64_t commit_index) {
  std::string key = FieldKey(oid, "\x01idem");
  key.push_back(kSep);
  key.append(token);
  key.push_back(kSep);
  PutVarint64(&key, commit_index);
  return key;
}

}  // namespace lo::runtime
