#ifndef DLS_IR_TOKENIZER_H_
#define DLS_IR_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace dls::ir {

namespace tokenizer_internal {

inline bool IsLetter(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
inline bool IsDigit(char c) { return c >= '0' && c <= '9'; }
inline char Lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace tokenizer_internal

/// The one tokenizing loop of the text index. Calls fn(lowered) for
/// each lowercase ASCII word token of `text`, in order. A token is a
/// maximal run of letters or digits that starts with a letter;
/// everything else (bytes >= 0x80 included) is a separator. Tokens of
/// length 1 are kept (the stopper usually removes them). `lowered`
/// points into a buffer reused for every token, valid only during the
/// call; the loop allocates nothing for tokens that fit the buffer's
/// inline storage, and later tokens reuse whatever a longer one grew.
template <typename Fn>
void ForEachToken(std::string_view text, Fn&& fn) {
  using tokenizer_internal::IsDigit;
  using tokenizer_internal::IsLetter;
  using tokenizer_internal::Lower;
  std::string lowered;
  size_t i = 0;
  while (i < text.size()) {
    if (!IsLetter(text[i])) {
      ++i;
      continue;
    }
    lowered.clear();
    while (i < text.size() && (IsLetter(text[i]) || IsDigit(text[i]))) {
      lowered.push_back(Lower(text[i]));
      ++i;
    }
    fn(std::string_view(lowered));
  }
}

/// The tokens ForEachToken visits, collected.
std::vector<std::string> Tokenize(std::string_view text);

}  // namespace dls::ir

#endif  // DLS_IR_TOKENIZER_H_
