/**
 * @file
 * EXPECT_INVALID_ARGUMENT(statement, text): EXPECT_THROW of a
 * std::invalid_argument whose what() contains @p text.
 */

#ifndef CVLIW_TESTS_EXPECT_INVALID_HH
#define CVLIW_TESTS_EXPECT_INVALID_HH

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#define EXPECT_INVALID_ARGUMENT(statement, text)                        \
    EXPECT_THROW(                                                       \
        {                                                               \
            try {                                                       \
                statement;                                              \
            } catch (const std::invalid_argument &err) {                \
                EXPECT_NE(std::string(err.what()).find(text),           \
                          std::string::npos)                            \
                    << err.what();                                      \
                throw;                                                  \
            }                                                           \
        },                                                              \
        std::invalid_argument)

#endif // CVLIW_TESTS_EXPECT_INVALID_HH
