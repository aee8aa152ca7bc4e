#include "tee/fs_shield.hh"

#include "crypto/sha256.hh"

namespace cllm::tee {

FsShield::FsShield(const crypto::Digest256 &sealing_key)
    : cipher_(crypto::toAesKey(crypto::deriveKey(sealing_key, "fs-data")))
{
    const crypto::Digest256 mk = crypto::deriveKey(sealing_key, "fs-mac");
    macKey_.assign(mk.begin(), mk.end());
}

std::uint64_t
FsShield::nonceOf(const std::string &path, std::uint64_t version) const
{
    // Derive a per-(path, version) nonce so rewrites never reuse a
    // keystream.
    crypto::Sha256 h;
    h.update(path);
    h.update(&version, sizeof(version));
    const crypto::Digest256 d = h.finish();
    std::uint64_t nonce = 0;
    for (int i = 0; i < 8; ++i)
        nonce = (nonce << 8) | d[i];
    return nonce;
}

crypto::Digest256
FsShield::macOf(const std::string &path, const File &f) const
{
    std::vector<std::uint8_t> buf;
    buf.reserve(path.size() + 8 + f.cipher.size());
    buf.insert(buf.end(), path.begin(), path.end());
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::uint8_t>(f.version >> (56 - 8 * i)));
    buf.insert(buf.end(), f.cipher.begin(), f.cipher.end());
    return crypto::hmacSha256(macKey_, buf.data(), buf.size());
}

void
FsShield::put(const std::string &path,
              const std::vector<std::uint8_t> &plaintext)
{
    File f;
    auto it = files_.find(path);
    f.version = (it == files_.end()) ? 1 : it->second.version + 1;
    f.cipher = plaintext;
    cipher_.transform(nonceOf(path, f.version), 0, f.cipher);
    f.mac = macOf(path, f);
    files_[path] = std::move(f);
}

std::optional<std::vector<std::uint8_t>>
FsShield::get(const std::string &path) const
{
    auto it = files_.find(path);
    if (it == files_.end())
        return std::nullopt;
    const File &f = it->second;
    if (!crypto::digestEqual(f.mac, macOf(path, f)))
        return std::nullopt;
    std::vector<std::uint8_t> plain = f.cipher;
    cipher_.transform(nonceOf(path, f.version), 0, plain);
    return plain;
}

bool
FsShield::tamper(const std::string &path, std::size_t offset)
{
    auto it = files_.find(path);
    if (it == files_.end() || it->second.cipher.empty())
        return false;
    it->second.cipher[offset % it->second.cipher.size()] ^= 0x01;
    return true;
}

} // namespace cllm::tee
