#include "ir/tokenizer.h"

namespace dls::ir {

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  ForEachToken(text, [&tokens](std::string_view token) {
    tokens.emplace_back(token);
  });
  return tokens;
}

}  // namespace dls::ir
