let current = "1.14.0"
