#include "sip/headers.h"

#include <algorithm>

#include "common/strings.h"

namespace scidive::sip {

std::string_view canonical_header_name(std::string_view name) {
  // RFC 3261 §7.3.3 compact forms (the subset this stack emits/accepts).
  if (name.size() == 1) {
    switch (str::to_lower(name[0])) {
      case 'v': return "Via";
      case 'f': return "From";
      case 't': return "To";
      case 'i': return "Call-ID";
      case 'm': return "Contact";
      case 'c': return "Content-Type";
      case 'l': return "Content-Length";
      case 'e': return "Content-Encoding";
      case 's': return "Subject";
      case 'k': return "Supported";
      default: break;
    }
  }
  return name;
}

namespace {
bool header_name_equals(std::string_view a, std::string_view b) {
  return str::iequals(canonical_header_name(a), canonical_header_name(b));
}
}  // namespace

void Headers::add(std::string name, std::string value) {
  fields_.push_back({std::move(name), std::move(value)});
}

void Headers::set(std::string name, std::string value) {
  remove(name);
  add(std::move(name), std::move(value));
}

void Headers::remove(std::string_view name) {
  std::erase_if(fields_, [&](const HeaderField& f) { return header_name_equals(f.name, name); });
}

std::optional<std::string_view> Headers::get(std::string_view name) const {
  for (const auto& f : fields_) {
    if (header_name_equals(f.name, name)) return std::string_view(f.value);
  }
  return std::nullopt;
}

std::vector<std::string_view> Headers::get_all(std::string_view name) const {
  std::vector<std::string_view> out;
  for (const auto& f : fields_) {
    if (header_name_equals(f.name, name)) out.push_back(f.value);
  }
  return out;
}

KnownHeader known_header(std::string_view name) {
  name = canonical_header_name(name);
  switch (name.size()) {
    case 2:
      if (str::iequals(name, "To")) return KnownHeader::kTo;
      break;
    case 3:
      if (str::iequals(name, "Via")) return KnownHeader::kVia;
      break;
    case 4:
      if (str::iequals(name, "From")) return KnownHeader::kFrom;
      if (str::iequals(name, "CSeq")) return KnownHeader::kCSeq;
      break;
    case 7:
      if (str::iequals(name, "Call-ID")) return KnownHeader::kCallId;
      if (str::iequals(name, "Contact")) return KnownHeader::kContact;
      break;
    case 13:
      if (str::iequals(name, "Authorization")) return KnownHeader::kAuthorization;
      break;
    case 14:
      if (str::iequals(name, "Content-Length")) return KnownHeader::kContentLength;
      break;
    case 16:
      if (str::iequals(name, "WWW-Authenticate")) return KnownHeader::kWwwAuthenticate;
      break;
    default:
      break;
  }
  return KnownHeader::kOther;
}

// --- NameAddr ---

Parsed<NameAddrView> parse_name_addr_view(std::string_view text) {
  text = str::trim(text);
  NameAddrView na;
  std::string_view uri_part;

  size_t lt = text.find('<');
  if (lt != std::string_view::npos) {
    size_t gt = text.find('>', lt);
    if (gt == std::string_view::npos) return ParseStatus{Errc::kMalformed, "unterminated <uri>"};
    na.display_name = unquote(str::trim(text.substr(0, lt)));
    uri_part = text.substr(lt + 1, gt - lt - 1);
    na.params = text.substr(gt + 1);
  } else {
    // addr-spec form: URI up to the first ';' is the URI, the rest are
    // header params (per RFC 3261, params after a bare addr-spec belong to
    // the header, not the URI).
    if (auto semi = str::split_once(text, ';')) {
      uri_part = semi->first;
      na.params = text.substr(semi->first.size());
    } else {
      uri_part = text;
    }
  }

  auto uri = parse_uri_view(uri_part);
  if (!uri.ok()) return uri.status();
  na.uri = uri.value();
  return na;
}

std::optional<std::string_view> NameAddrView::param(std::string_view name) const {
  std::optional<std::string_view> found;
  for_each_param(params, ';', [&](std::string_view key, std::string_view value) {
    if (str::trim(key) == name) found = str::trim(value);
  });
  return found;
}

Result<NameAddr> NameAddr::parse(std::string_view text) {
  auto view = parse_name_addr_view(text);
  if (!view.ok()) return view.error();
  const NameAddrView& v = view.value();
  NameAddr na;
  na.display_name = std::string(v.display_name);
  na.uri = SipUri(v.uri);
  for_each_param(v.params, ';', [&](std::string_view key, std::string_view value) {
    na.params[std::string(str::trim(key))] = std::string(str::trim(value));
  });
  return na;
}

std::string NameAddr::to_string() const {
  std::string out;
  if (!display_name.empty()) {
    out += '"';
    out += display_name;
    out += "\" ";
  }
  out += '<';
  out += uri.to_string();
  out += '>';
  for (const auto& [k, v] : params) {
    out += ';';
    out += k;
    if (!v.empty()) {
      out += '=';
      out += v;
    }
  }
  return out;
}

// --- Via ---

Parsed<ViaView> parse_via_view(std::string_view text) {
  text = str::trim(text);
  // SIP/2.0/UDP host[:port][;params]
  if (!str::istarts_with(text, "SIP/2.0/"))
    return ParseStatus{Errc::kMalformed, "Via must start with SIP/2.0/"};
  text.remove_prefix(8);
  auto sp = text.find(' ');
  if (sp == std::string_view::npos) return ParseStatus{Errc::kMalformed, "Via missing sent-by"};
  ViaView via;
  via.transport = str::trim(text.substr(0, sp));
  std::string_view rest = str::trim(text.substr(sp + 1));

  std::string_view hostport = rest;
  if (auto semi = str::split_once(rest, ';')) {
    hostport = str::trim(semi->first);
    via.params = semi->second;
  }
  if (auto colon = str::split_once(hostport, ':')) {
    auto port = str::parse_u16(colon->second);
    if (!port) return ParseStatus{Errc::kMalformed, "Via bad port"};
    via.port = *port;
    hostport = colon->first;
  }
  if (hostport.empty()) return ParseStatus{Errc::kMalformed, "Via empty host"};
  via.host = hostport;
  return via;
}

std::string_view top_via_value(std::string_view field) {
  if (auto comma = str::split_once(field, ',')) return comma->first;
  return field;
}

Result<Via> Via::parse(std::string_view text) {
  auto view = parse_via_view(text);
  if (!view.ok()) return view.error();
  const ViaView& v = view.value();
  Via via;
  via.transport = std::string(v.transport);
  via.host = std::string(v.host);
  via.port = v.port;
  for_each_param(v.params, ';', [&](std::string_view key, std::string_view value) {
    via.params[std::string(key)] = std::string(value);
  });
  return via;
}

std::string Via::to_string() const {
  std::string out = "SIP/2.0/" + transport + " " + host;
  if (port != 0) out += str::format(":%u", port);
  for (const auto& [k, v] : params) {
    out += ';';
    out += k;
    if (!v.empty()) {
      out += '=';
      out += v;
    }
  }
  return out;
}

// --- CSeq ---

Parsed<CSeqView> parse_cseq_view(std::string_view text) {
  text = str::trim(text);
  auto sp = str::split_once(text, ' ');
  if (!sp) return ParseStatus{Errc::kMalformed, "CSeq needs 'number METHOD'"};
  auto num = str::parse_u32(str::trim(sp->first));
  if (!num) return ParseStatus{Errc::kMalformed, "CSeq bad number"};
  std::string_view method = str::trim(sp->second);
  if (method.empty()) return ParseStatus{Errc::kMalformed, "CSeq empty method"};
  return CSeqView{*num, method};
}

Result<CSeq> CSeq::parse(std::string_view text) {
  auto view = parse_cseq_view(text);
  if (!view.ok()) return view.error();
  return CSeq{view.value().number, std::string(view.value().method)};
}

std::string CSeq::to_string() const { return str::format("%u %s", number, method.c_str()); }

}  // namespace scidive::sip
