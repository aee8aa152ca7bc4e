/**
 * @file
 * Crypto primitive tests against published vectors: SHA-256 (FIPS
 * 180-4 / NIST CAVP), AES-128 (FIPS 197 Appendix C), AES-CTR
 * (NIST SP 800-38A F.5.1), and HMAC-SHA256 (RFC 4231).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crypto/aes.hh"
#include "crypto/ctr.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"
#include "par/pool.hh"

using namespace cllm;
using namespace cllm::crypto;

namespace {

std::vector<std::uint8_t>
fromHex(const std::string &hex)
{
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
        out.push_back(static_cast<std::uint8_t>(
            std::stoul(hex.substr(i, 2), nullptr, 16)));
    }
    return out;
}

/** Lowercase hex of a digest, for comparing against published vectors. */
std::string
toHex(const Digest256 &digest)
{
    static const char *hex = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint8_t b : digest) {
        out += hex[b >> 4];
        out += hex[b & 0xf];
    }
    return out;
}

} // namespace

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(toHex(sha256(std::string())),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(toHex(sha256(std::string("abc"))),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(toHex(sha256(std::string(
                  "abcdbcdecdefdefgefghfghighijhijk"
                  "ijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        h.update(chunk);
    EXPECT_EQ(toHex(h.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    const std::string msg = "The quick brown fox jumps over the lazy dog";
    Sha256 h;
    for (char c : msg)
        h.update(&c, 1);
    EXPECT_EQ(toHex(h.finish()), toHex(sha256(msg)));
}

TEST(Sha256, ExactBlockBoundary)
{
    // 64-byte message exercises the padding-into-new-block path.
    const std::string msg(64, 'x');
    const std::string msg63(63, 'x');
    const std::string msg65(65, 'x');
    EXPECT_NE(toHex(sha256(msg)), toHex(sha256(msg63)));
    EXPECT_NE(toHex(sha256(msg)), toHex(sha256(msg65)));
    // Determinism.
    EXPECT_EQ(toHex(sha256(msg)), toHex(sha256(msg)));
}

TEST(Sha256Death, FinishTwicePanics)
{
    Sha256 h;
    h.update(std::string("x"));
    h.finish();
    EXPECT_DEATH(h.finish(), "finish");
}

TEST(Aes128, Fips197Vector)
{
    // FIPS 197 Appendix C.1.
    AesKey key;
    const auto kbytes = fromHex("000102030405060708090a0b0c0d0e0f");
    std::memcpy(key.data(), kbytes.data(), 16);
    Aes128 aes(key);

    AesBlock block;
    const auto pbytes = fromHex("00112233445566778899aabbccddeeff");
    std::memcpy(block.data(), pbytes.data(), 16);
    aes.encryptBlock(block);

    const auto expect = fromHex("69c4e0d86a7b0430d8cdb78070b4c55a");
    EXPECT_EQ(0, std::memcmp(block.data(), expect.data(), 16));
}

TEST(AesCtr, Sp80038aVector)
{
    // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, first block.
    // Counter block f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff splits into our
    // (nonce, counter) halves.
    AesKey key;
    const auto kb = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    std::memcpy(key.data(), kb.data(), 16);
    AesCtr ctr(key);

    auto plain = fromHex("6bc1bee22e409f96e93d7e117393172a");
    ctr.transform(0xf0f1f2f3f4f5f6f7ULL, 0xf8f9fafbfcfdfeffULL,
                  plain.data(), plain.size());
    EXPECT_EQ(plain, fromHex("874d6191b620e3261bef6864990db6ce"));
}

TEST(AesCtr, TransformIsInvolution)
{
    AesKey key{};
    key[0] = 1;
    AesCtr ctr(key);
    std::vector<std::uint8_t> data(1000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    auto orig = data;
    ctr.transform(42, 0, data);
    EXPECT_NE(data, orig);
    ctr.transform(42, 0, data);
    EXPECT_EQ(data, orig);
}

TEST(AesCtr, DistinctNoncesDistinctStreams)
{
    AesKey key{};
    AesCtr ctr(key);
    std::vector<std::uint8_t> a(64, 0), b(64, 0);
    ctr.transform(1, 0, a);
    ctr.transform(2, 0, b);
    EXPECT_NE(a, b);
}

TEST(AesCtr, CounterOffsetsKeystream)
{
    AesKey key{};
    AesCtr ctr(key);
    // Encrypting the second 16-byte block alone must equal the tail
    // of a 32-byte encryption starting at counter 0.
    std::vector<std::uint8_t> whole(32, 0), tail(16, 0);
    ctr.transform(9, 0, whole);
    ctr.transform(9, 1, tail);
    EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                           whole.begin() + 16));
}

TEST(AesCtr, NonBlockMultipleLength)
{
    AesKey key{};
    AesCtr ctr(key);
    std::vector<std::uint8_t> data(21, 0xab);
    auto orig = data;
    ctr.transform(5, 7, data);
    ctr.transform(5, 7, data);
    EXPECT_EQ(data, orig);
}

TEST(HmacSha256, Rfc4231Case1)
{
    const std::vector<std::uint8_t> key(20, 0x0b);
    const std::string data = "Hi There";
    EXPECT_EQ(toHex(hmacSha256(key, data.data(), data.size())),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2)
{
    const std::string key = "Jefe";
    const std::string data = "what do ya want for nothing?";
    EXPECT_EQ(toHex(hmacSha256({key.begin(), key.end()}, data.data(),
                               data.size())),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3)
{
    const std::vector<std::uint8_t> key(20, 0xaa);
    const std::vector<std::uint8_t> data(50, 0xdd);
    EXPECT_EQ(toHex(hmacSha256(key, data.data(), data.size())),
              "773ea91e36800e46854db8ebd09181a7"
              "2959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst)
{
    // RFC 4231 case 6: 131-byte key.
    const std::vector<std::uint8_t> key(131, 0xaa);
    const std::string data = "Test Using Larger Than Block-Size Key - "
                             "Hash Key First";
    EXPECT_EQ(toHex(hmacSha256(key, data.data(), data.size())),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(DeriveKey, DistinctLabelsDistinctKeys)
{
    const Digest256 master = sha256(std::string("master"));
    const Digest256 a = deriveKey(master, "mee-data");
    const Digest256 b = deriveKey(master, "mee-mac");
    EXPECT_FALSE(digestEqual(a, b));
    EXPECT_TRUE(digestEqual(a, deriveKey(master, "mee-data")));
}

TEST(DigestEqual, DetectsSingleBitFlip)
{
    Digest256 a = sha256(std::string("x"));
    Digest256 b = a;
    EXPECT_TRUE(digestEqual(a, b));
    b[31] ^= 0x01;
    EXPECT_FALSE(digestEqual(a, b));
}

TEST(ToAesKey, TakesFirstSixteenBytes)
{
    const Digest256 d = sha256(std::string("k"));
    const AesKey k = toAesKey(d);
    EXPECT_EQ(0, std::memcmp(k.data(), d.data(), 16));
}

TEST(AesCtr, ParallelTransformBitIdenticalAcrossThreadCounts)
{
    AesKey key{};
    for (std::size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(i + 1);
    const AesCtr ctr(key);

    // Cover multiple parallel chunks (256 blocks each) plus a ragged
    // tail that is not a multiple of the 16-byte block size.
    std::vector<std::uint8_t> plain(256 * 16 * 5 + 7);
    for (std::size_t i = 0; i < plain.size(); ++i)
        plain[i] = static_cast<std::uint8_t>(i * 31 + 3);

    par::setThreadCount(1);
    std::vector<std::uint8_t> serial = plain;
    ctr.transform(0xdeadbeef, 42, serial);

    for (unsigned threads : {2u, 4u, 8u}) {
        par::setThreadCount(threads);
        std::vector<std::uint8_t> parallel = plain;
        ctr.transform(0xdeadbeef, 42, parallel);
        EXPECT_EQ(serial, parallel) << threads << " threads";
        // Round-trip: decrypting restores the plaintext.
        ctr.transform(0xdeadbeef, 42, parallel);
        EXPECT_EQ(plain, parallel);
    }
    par::setThreadCount(0);
}
