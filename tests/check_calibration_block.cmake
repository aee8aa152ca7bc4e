# Fail unless the block between the calibration markers of DOC is
# byte-identical to the stdout of REPORT (bench/calibration).
# Usage: cmake -DREPORT=<binary> -DDOC=<markdown> -P <this file>
execute_process(COMMAND ${REPORT} OUTPUT_VARIABLE report
    RESULT_VARIABLE rc)
file(READ ${DOC} doc)
string(REGEX MATCH
    "<!-- calibration:begin -->\n(.*)<!-- calibration:end -->" _ "${doc}")
if(NOT rc EQUAL 0 OR NOT CMAKE_MATCH_1 STREQUAL report)
    message(FATAL_ERROR "the calibration block of ${DOC} is not the "
        "output of ${REPORT} (exit ${rc}); paste that output between "
        "the markers.\n--- block ---\n${CMAKE_MATCH_1}--- report ---\n"
        "${report}")
endif()
