# Runs a command that writes a file and compares the file's SHA-256 with
# a pinned value. Used by ctest to pin output bytes:
#
#   cmake -DCOMMAND="<exe> <args...>" -DOUTPUT=<file> -DSHA256=<hex>
#         -P check_digest.cmake
#
# COMMAND is split like a shell command line (no quoting needed for the
# plain flags the pins use).
separate_arguments(command UNIX_COMMAND "${COMMAND}")
execute_process(COMMAND ${command} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "command failed (${rc}): ${COMMAND}")
endif()
file(SHA256 "${OUTPUT}" digest)
if(NOT digest STREQUAL SHA256)
  message(FATAL_ERROR
    "${OUTPUT}: SHA-256 ${digest}, pinned ${SHA256}")
endif()
