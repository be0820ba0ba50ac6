# Run one command for ctest and check its exit code and output:
#
#   cmake -DEXIT=<code> -DOUTPUT=<regex> -P cli_expect.cmake -- CMD ARGS...
#
# Fails unless CMD exits with EXIT and its stdout + stderr match
# OUTPUT. Plain ctest only tells zero from nonzero exits, and an abort
# is nonzero too.
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_dashes)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(after_dashes TRUE)
    endif()
endforeach()
execute_process(COMMAND ${cmd} TIMEOUT 60 RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL EXIT)
    message(FATAL_ERROR "exit '${rc}', expected ${EXIT}:\n${out}")
endif()
if(NOT out MATCHES "${OUTPUT}")
    message(FATAL_ERROR "output does not match '${OUTPUT}':\n${out}")
endif()
message("${out}")
